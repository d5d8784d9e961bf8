// function_ref: a non-owning, non-allocating callable reference.
//
// The sweep hot path hands two per-item callbacks (probe-id and
// measurement lookup) through every batch dispatch; std::function there
// costs a potential heap allocation per construction and a double
// indirection per call. function_ref is two words — a type-erased object
// pointer plus a trampoline — so passing a lambda costs nothing and each
// call is one indirect call.
//
// Lifetime contract: function_ref never extends the referenced callable's
// lifetime. Bind only callables that outlive every invocation — in
// practice, pass it down a synchronous call chain and never store it
// beyond the call (the thread pool and BatchSweeper obey this).
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace ptycho {

template <class Signature>
class function_ref;  // primary template left undefined

template <class R, class... Args>
class function_ref<R(Args...)> {
 public:
  function_ref() = default;

  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, function_ref> &&
                                     std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like string_view
  function_ref(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace ptycho
