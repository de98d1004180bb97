/**
 * @file
 * Small-buffer move-only callable, the event queue's callback type.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * which made every scheduled event an allocation. InlineFunction
 * stores captures up to InlineSize bytes inside the object itself
 * (enough for the simulator's {this, id, tick} lambdas and for a
 * network delivery event: an InlineCallback plus its destination and
 * tick) and only falls back to the heap for oversized captures.
 */

#ifndef MSCP_SIM_INLINE_FUNCTION_HH
#define MSCP_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mscp
{

/** Move-only `void()` callable with inline storage. */
class InlineFunction
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t InlineSize = 56;

    /**
     * Whether a functor of type @p F is stored inline. A call site
     * that must not allocate static_asserts this on its functor, so
     * a capture that outgrows the buffer fails to compile instead of
     * silently taking the heap fallback.
     */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= InlineSize &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (storage()) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            heapPtr() = new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&o) noexcept
    {
        moveFrom(std::move(o));
    }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            destroy();
            moveFrom(std::move(o));
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const { return ops != nullptr; }

    void
    operator()()
    {
        ops->invoke(this);
    }

  private:
    struct Ops
    {
        void (*invoke)(InlineFunction *);
        void (*moveTo)(InlineFunction *from, InlineFunction *to);
        void (*destroy)(InlineFunction *);
    };

    void *storage() { return buf; }
    const void *storage() const { return buf; }

    void *&
    heapPtr()
    {
        return *reinterpret_cast<void **>(buf);
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](InlineFunction *self) {
            (*std::launder(
                reinterpret_cast<Fn *>(self->storage())))();
        },
        [](InlineFunction *from, InlineFunction *to) {
            Fn *src = std::launder(
                reinterpret_cast<Fn *>(from->storage()));
            ::new (to->storage()) Fn(std::move(*src));
            src->~Fn();
        },
        [](InlineFunction *self) {
            std::launder(
                reinterpret_cast<Fn *>(self->storage()))->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](InlineFunction *self) {
            (*static_cast<Fn *>(self->heapPtr()))();
        },
        [](InlineFunction *from, InlineFunction *to) {
            to->heapPtr() = from->heapPtr();
            from->heapPtr() = nullptr;
        },
        [](InlineFunction *self) {
            delete static_cast<Fn *>(self->heapPtr());
        },
    };

    void
    moveFrom(InlineFunction &&o) noexcept
    {
        ops = o.ops;
        if (ops)
            ops->moveTo(&o, this);
        o.ops = nullptr;
    }

    void
    destroy()
    {
        if (ops) {
            ops->destroy(this);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[InlineSize];
    const Ops *ops = nullptr;
};

/**
 * Copyable `void(Args...)` callable with inline-only storage.
 *
 * The delivery-callback counterpart of InlineFunction: a network
 * send schedules one event per delivery and each event needs its
 * own copy of the callback, so the type must be cheaply copyable.
 * Storage is strictly inline - there is no heap fallback - and the
 * functor must be trivially copyable, which every capture the
 * simulator uses ({this, slot} or a couple of references) is. Both
 * constraints are enforced at compile time, so the zero-allocation
 * guarantee of the delivery path cannot silently regress.
 */
template <typename... Args>
class InlineCallback
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t InlineSize = 24;
    /**
     * Alignment of the inline buffer: a pointer's, so the callback
     * packs into 32 bytes and a delivery event (the callback, its
     * destination and its tick) fits InlineFunction's buffer.
     */
    static constexpr std::size_t Align = alignof(void *);

    InlineCallback() = default;

    /** Callers historically pass nullptr for "no callback". */
    InlineCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineCallback(F f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= InlineSize,
                      "capture too large for InlineCallback");
        static_assert(alignof(Fn) <= Align,
                      "capture over-aligned for InlineCallback");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "InlineCallback requires trivially copyable "
                      "functors");
        static_assert(std::is_trivially_destructible_v<Fn>,
                      "InlineCallback requires trivially "
                      "destructible functors");
        ::new (static_cast<void *>(buf)) Fn(std::move(f));
        invoke = [](void *p, Args... args) {
            (*std::launder(reinterpret_cast<Fn *>(p)))(args...);
        };
    }

    explicit operator bool() const { return invoke != nullptr; }

    void
    operator()(Args... args) const
    {
        invoke(buf, args...);
    }

  private:
    void (*invoke)(void *, Args...) = nullptr;
    /** Mutable so stateful (mutable-lambda) functors stay callable
     *  through the const interface the send paths use. */
    alignas(Align) mutable unsigned char buf[InlineSize];
};

// The invoker plus a pointer-aligned buffer, with no padding.
static_assert(sizeof(InlineCallback<>) == 32 &&
              alignof(InlineCallback<>) == alignof(void *));

} // namespace mscp

#endif // MSCP_SIM_INLINE_FUNCTION_HH
