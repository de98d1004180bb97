/**
 * @file
 * Inline callables: the event queue's callback type and the timed
 * network's per-delivery callback.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * which made every scheduled event an allocation. An InlineFn keeps
 * its functor inside the object, with no heap fallback, and accepts
 * only trivially copyable, trivially destructible functors, which
 * every capture the simulator schedules is ({this, id, tick}, an
 * {engine, slot} delivery callback plus its destination and tick, a
 * few references). So an InlineFn is itself trivially copyable: a
 * copy or a move copies bytes and nothing runs when one dies. A
 * functor that is too large, over-aligned or not trivially copyable
 * fails to compile, so no call site needs its own check that the
 * event and delivery paths stay allocation-free.
 */

#ifndef MSCP_SIM_INLINE_FUNCTION_HH
#define MSCP_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mscp
{

/**
 * `void(Args...)` callable stored in a @p Size-byte buffer aligned
 * to @p Align. Copyable; the null callable is default-constructed or
 * built from nullptr.
 */
template <std::size_t Size, std::size_t Align, typename... Args>
class InlineFn
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t InlineSize = Size;

    InlineFn() = default;

    /** Callers historically pass nullptr for "no callback". */
    InlineFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFn(F f)
        : InlineFn(std::in_place_type<F>, f)
    {}

    /**
     * Build an @p F in the buffer from @p fields (brace-initialized),
     * so each field is written once, where the call will read it. A
     * functor built elsewhere and then copied in is read back in
     * wide loads right after its narrow stores, which stalls store
     * forwarding.
     */
    template <typename F, typename... Fields>
    explicit InlineFn(std::in_place_type_t<F>, Fields &&...fields)
    {
        static_assert(sizeof(F) <= Size, "capture too large for InlineFn");
        static_assert(alignof(F) <= Align,
                      "capture over-aligned for InlineFn");
        static_assert(std::is_trivially_copyable_v<F>,
                      "InlineFn requires trivially copyable functors");
        static_assert(std::is_trivially_destructible_v<F>,
                      "InlineFn requires trivially destructible "
                      "functors");
        ::new (static_cast<void *>(buf))
            F{std::forward<Fields>(fields)...};
        invoke = [](void *p, Args... args) {
            (*std::launder(reinterpret_cast<F *>(p)))(args...);
        };
    }

    explicit operator bool() const { return invoke != nullptr; }

    void
    operator()(Args... args) const
    {
        invoke(buf, args...);
    }

  private:
    /** Mutable so stateful (mutable-lambda) functors stay callable
     *  through the const interface the send paths use. */
    alignas(Align) mutable unsigned char buf[Size];
    void (*invoke)(void *, Args...) = nullptr;
};

/**
 * The event queue's `void()` callback: 56 bytes of capture, enough
 * for a network delivery event (an InlineCallback, its destination
 * and its tick) and for the simulator's {this, id, tick} lambdas.
 */
using InlineFunction = InlineFn<56, alignof(std::max_align_t)>;

/**
 * A network send's per-delivery callback, copied into one event per
 * delivery: 24 bytes of capture ({this, slot} or a couple of
 * references), pointer-aligned so the callback packs into 32 bytes
 * and a delivery event fits InlineFunction.
 */
template <typename... Args>
using InlineCallback = InlineFn<24, alignof(void *), Args...>;

// The buffer plus the invoker, with no padding.
static_assert(sizeof(InlineFunction) == 64);
static_assert(sizeof(InlineCallback<>) == 32 &&
              alignof(InlineCallback<>) == alignof(void *));
static_assert(std::is_trivially_copyable_v<InlineFunction> &&
              std::is_trivially_destructible_v<InlineFunction>);

} // namespace mscp

#endif // MSCP_SIM_INLINE_FUNCTION_HH
