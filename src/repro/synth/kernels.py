"""Algebraic kernels, co-kernels and weak division (Brayton/McMullen).

Treating a cover as an algebraic expression (cubes = monomials), a *kernel*
is a cube-free quotient of the cover by a cube (its *co-kernel*).  Kernels
are where multi-level logic finds common divisors; the factoring and
extraction passes build on the primitives here:

- :func:`weak_divide` — algebraic division ``F = D·Q + R``,
- :func:`cube_free` — make a cover cube-free by dividing out its common cube,
- :func:`kernels` — all (co-kernel, kernel) pairs, level-0 upward.
"""

from __future__ import annotations

from repro.logic.sop import Cover, Cube


def common_cube(cover: Cover) -> Cube:
    """The largest cube dividing every cube of the cover."""
    if not cover.cubes:
        return Cube.universe(cover.nvars)
    care = None
    values = None
    for cube in cover.cubes:
        if care is None:
            care, values = cube.care, cube.values
        else:
            agree = care & cube.care & ~(values ^ cube.values)
            care = agree
            values = values & agree
    return Cube(cover.nvars, care or 0, (values or 0) & (care or 0))


def cube_free(cover: Cover) -> Cover:
    """Divide out the common cube, making the cover cube-free."""
    cc = common_cube(cover)
    if cc.care == 0:
        return cover
    return divide_by_cube(cover, cc)


def divide_by_cube(cover: Cover, cube: Cube) -> Cover:
    """Quotient of the cover by one cube (cubes not containing it drop out)."""
    quotient = []
    for c in cover.cubes:
        # c must contain every literal of `cube`.
        if (c.care & cube.care) == cube.care and (
            (c.values ^ cube.values) & cube.care
        ) == 0:
            quotient.append(
                Cube(
                    cover.nvars,
                    c.care & ~cube.care,
                    c.values & ~cube.care,
                )
            )
    return Cover(cover.nvars, quotient)


def weak_divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Algebraic division ``cover = divisor·Q + R``.

    Q is the largest cover with ``divisor·Q ⊆ cover`` algebraically (cube
    multiset containment); R collects the cubes not produced by the product.
    """
    if not divisor.cubes:
        return Cover(cover.nvars, []), cover.copy()
    quotients = []
    for d in divisor.cubes:
        quotients.append({c for c in divide_by_cube(cover, d).cubes})
    q_cubes = set.intersection(*quotients) if quotients else set()
    # Deterministic order: as they appear via the first divisor cube.
    ordered_q = [
        c for c in divide_by_cube(cover, divisor.cubes[0]).cubes if c in q_cubes
    ]
    quotient = Cover(cover.nvars, ordered_q)
    produced = set()
    for q in ordered_q:
        for d in divisor.cubes:
            prod = q.intersect(d)
            if prod is not None:
                produced.add(prod)
    remainder = Cover(
        cover.nvars, [c for c in cover.cubes if c not in produced]
    )
    return quotient, remainder


def _literal_counts(cover: Cover) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for cube in cover.cubes:
        for var, polarity in cube.literals():
            key = (var, polarity)
            counts[key] = counts.get(key, 0) + 1
    return counts


def kernels(
    cover: Cover, _min_index: int = 0
) -> list[tuple[Cube, Cover]]:
    """All (co-kernel, kernel) pairs of the cover.

    The cover itself appears with the universe co-kernel when it is
    cube-free.  Duplicate kernels (reached through different literal orders)
    are pruned by the standard index-ordering argument.
    """
    found: list[tuple[Cube, Cover]] = []
    seen: set[tuple] = set()

    def recurse(current: Cover, co_kernel: Cube, min_literal: int) -> None:
        counts = _literal_counts(current)
        for var in range(current.nvars):
            for polarity in (0, 1):
                literal_index = var * 2 + polarity
                if literal_index < min_literal:
                    continue
                if counts.get((var, polarity), 0) < 2:
                    continue
                lit_cube = Cube.universe(current.nvars).with_literal(var, polarity)
                quotient = divide_by_cube(current, lit_cube)
                cc = common_cube(quotient)
                kernel = divide_by_cube(quotient, cc) if cc.care else quotient
                new_co = co_kernel.intersect(lit_cube)
                if new_co is not None and cc.care:
                    new_co = new_co.intersect(cc)
                if new_co is None:
                    continue
                key = tuple(sorted((c.care, c.values) for c in kernel.cubes))
                if key in seen:
                    continue
                seen.add(key)
                found.append((new_co, kernel))
                recurse(kernel, new_co, literal_index + 1)

    base = cube_free(cover)
    if len(base.cubes) > 1:
        key = tuple(sorted((c.care, c.values) for c in base.cubes))
        if key not in seen:
            seen.add(key)
            found.append((common_cube(cover), base))
    recurse(cover, Cube.universe(cover.nvars), 0)
    return found
