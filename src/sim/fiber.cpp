#include "sim/fiber.hpp"

#include "util/assert.hpp"

#if SPBC_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#if SPBC_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#if SPBC_FIBER_ASM_SWITCH
#include <xmmintrin.h>

// void spbc_sim_fiber_switch(void** save_sp, void* load_sp)
//
// Pushes the callee-saved registers and the floating-point control words
// onto the current stack, stores the stack pointer to *save_sp, loads
// load_sp and pops the same frame from there. Everything else is
// caller-saved under the SysV ABI, so the compiler already spilled it
// around the call. A fresh fiber's stack is pre-built by init_context in
// this frame's layout with Fiber::entry as the return address.
extern "C" void spbc_sim_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .text
  .globl spbc_sim_fiber_switch
  .hidden spbc_sim_fiber_switch
  .type spbc_sim_fiber_switch, @function
  .p2align 4
spbc_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size spbc_sim_fiber_switch, .-spbc_sim_fiber_switch
)");
#endif

namespace spbc::sim {

namespace {
thread_local Fiber* g_current_fiber = nullptr;
}  // namespace

Fiber* Fiber::current() { return g_current_fiber; }

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

StackPool::StackPool(size_t stack_size) : stack_size_(stack_size) {
  SPBC_ASSERT(stack_size >= 16 * 1024);
}

unsigned char* StackPool::acquire() {
  unsigned char* s;
  if (!free_.empty()) {
    s = free_.back().release();
    free_.pop_back();
  } else {
    // Default-initialized: pages stay untouched until the fiber's call chain
    // actually reaches them.
    s = new unsigned char[stack_size_];
    ++allocated_;
  }
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return s;
}

void StackPool::release(unsigned char* stack) {
  SPBC_ASSERT(live_ > 0);
  --live_;
  free_.emplace_back(stack);
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, StackPool& pool)
    : body_(std::move(body)), pool_(&pool), stack_(pool.acquire()) {
  init_context(pool.stack_size());
}

Fiber::Fiber(std::function<void()> body, size_t stack_size)
    : body_(std::move(body)), stack_(new unsigned char[stack_size]) {
  SPBC_ASSERT(stack_size >= 16 * 1024);
  init_context(stack_size);
}

void Fiber::init_context(size_t stack_size) {
#if SPBC_ASAN
  stack_size_ = stack_size;
#endif
#if SPBC_FIBER_ASM_SWITCH
  // The frame spbc_sim_fiber_switch pops, top of stack downwards: a null
  // return address for entry (ends unwinding and backtraces), entry itself,
  // rbp rbx r12 r13 r14 r15 (zero), then MXCSR and the x87 control word,
  // inherited from the creating thread. The slot `ret` pops is 16-byte
  // aligned, so entry starts with rsp = 8 (mod 16) as after a call.
  auto top = (reinterpret_cast<uintptr_t>(stack_) + stack_size) &
             ~static_cast<uintptr_t>(15);
  auto* frame = reinterpret_cast<uint64_t*>(top) - 9;
  for (int i = 0; i < 9; ++i) frame[i] = 0;
  uint16_t fpu_cw;
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const uint32_t mxcsr = _mm_getcsr();
  frame[0] = mxcsr | static_cast<uint64_t>(fpu_cw) << 32;
  frame[7] = reinterpret_cast<uint64_t>(&Fiber::entry);
  sp_ = frame;
#else
  int rc = getcontext(&ctx_);
  SPBC_ASSERT_MSG(rc == 0, "getcontext failed");
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = stack_size;
  ctx_.uc_link = nullptr;  // entry never falls through; it yields forever
  makecontext(&ctx_, &Fiber::entry, 0);
#endif
#if SPBC_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // A fiber must not be destroyed while running; parked fibers are destroyed
  // only after a kill+resume cycle or at engine teardown (their stacks just
  // go away; destructors of parked frames do not run, which engine teardown
  // accepts for simulation-owned fibers that hold no external resources).
#if SPBC_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (pool_ != nullptr)
    pool_->release(stack_);
  else
    delete[] stack_;
}

void Fiber::switch_in() {
#if SPBC_ASAN
  void* sched_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&sched_fake_stack, stack_, stack_size_);
#endif
#if SPBC_FIBER_ASM_SWITCH
  spbc_sim_fiber_switch(&sched_sp_, sp_);
#else
  int rc = swapcontext(&sched_ctx_, &ctx_);
  SPBC_ASSERT(rc == 0);
#endif
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(sched_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switch_out() {
#if SPBC_ASAN
  // A finished fiber never comes back, so its fake stack can go.
  __sanitizer_start_switch_fiber(finished() ? nullptr : &asan_fake_stack_,
                                 asan_sched_bottom_, asan_sched_size_);
#endif
#if SPBC_FIBER_ASM_SWITCH
  spbc_sim_fiber_switch(&sp_, sched_sp_);
#else
  int rc = swapcontext(&ctx_, &sched_ctx_);
  SPBC_ASSERT(rc == 0);
#endif
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_sched_bottom_,
                                  &asan_sched_size_);
#endif
}

void Fiber::entry() {
  // resume() set the current fiber just before switching here.
  Fiber* self = g_current_fiber;
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_sched_bottom_,
                                  &self->asan_sched_size_);
#endif
  try {
    self->body_();
  } catch (const FiberKilled&) {
    // Normal failure-injection unwind path.
  }
  // Mark finished and return control to the scheduler forever.
  self->state_ = State::kFinished;
  for (;;) {
    g_current_fiber = nullptr;
#if SPBC_TSAN
    __tsan_switch_to_fiber(self->tsan_sched_fiber_, 0);
#endif
    self->switch_out();
    // A finished fiber should never be resumed, but tolerate it.
  }
}

void Fiber::resume() {
  SPBC_ASSERT_MSG(state_ != State::kFinished, "resume of finished fiber");
  SPBC_ASSERT_MSG(g_current_fiber == nullptr, "nested fiber resume");
  state_ = State::kRunning;
  g_current_fiber = this;
#if SPBC_TSAN
  tsan_sched_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  switch_in();
  g_current_fiber = nullptr;
}

void Fiber::yield() {
  SPBC_ASSERT_MSG(g_current_fiber == this, "yield from non-current fiber");
  state_ = State::kParked;
  g_current_fiber = nullptr;
#if SPBC_TSAN
  __tsan_switch_to_fiber(tsan_sched_fiber_, 0);
#endif
  switch_out();
  g_current_fiber = this;
  state_ = State::kRunning;
  if (kill_requested_) throw FiberKilled{};
}

}  // namespace spbc::sim
