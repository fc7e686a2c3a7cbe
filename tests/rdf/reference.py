"""Naive reference evaluator: the differential oracle for BGP tests.

Does the dumbest possible thing — enumerate every triple per pattern,
nested-loop join in the given order, filter at the end — so it shares
no code or cleverness with :class:`repro.rdf.planner.QueryPlanner`.
"""

from repro.rdf.terms import Variable


def reference_bgp(store, bgp, filters=(), initial=None):
    """All solutions of ``bgp`` over ``store``: no ordering, no push-down.

    A filter applies only to solutions that bind every variable it
    mentions; a filter over a variable no pattern binds is ignored.
    """
    solutions = [dict(initial or {})]
    for pattern in bgp:
        next_solutions = []
        for sol in solutions:
            for s, p, o in store.triples():
                candidate = dict(sol)
                ok = True
                for term, value in ((pattern.s, s), (pattern.p, p),
                                    (pattern.o, o)):
                    if isinstance(term, Variable):
                        if candidate.get(term.name, value) != value:
                            ok = False
                            break
                        candidate[term.name] = value
                    elif term != value:
                        ok = False
                        break
                if ok:
                    next_solutions.append(candidate)
        solutions = next_solutions
    return [
        sol for sol in solutions
        if all(
            f.evaluate(sol) for f in filters if f.variables() <= sol.keys()
        )
    ]


def canon(solutions):
    """A solution list as a sorted, order-free multiset."""
    return sorted(
        tuple(sorted((k, str(v)) for k, v in s.items()))
        for s in solutions
    )
