"""Naive reference evaluator: the differential oracle for BGP tests.

Does the dumbest possible thing — enumerate every triple per pattern
and nested-loop join in the given order — so it shares no code or
cleverness with :class:`repro.rdf.planner.QueryPlanner`.
"""

from repro.rdf.terms import Variable


def reference_bgp(store, bgp, initial=None):
    """All solutions of ``bgp`` over ``store``, extending ``initial``."""
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
    return solutions


def canon(solutions):
    """A solution list as a sorted, order-free multiset.

    Terms render through ``repr`` so an IRI and a literal with the same
    text (or ``1`` and ``"1"``) stay distinct.
    """
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in s.items()))
        for s in solutions
    )
