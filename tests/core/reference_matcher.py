"""Naive reference IX matcher: the differential oracle for the compiled one.

Does the dumbest possible thing — for every pattern edge, in pattern
order, scan every graph edge; interpret the whole filter only once every
edge is bound — so it shares no code or cleverness with
:class:`repro.core.ixpatterns.PatternMatcher`, which runs each pattern's
compiled plan over an edge index with the filter's conjuncts pushed
down.
"""

from repro.core.ixpatterns import PatternMatch, pos_class_of_tag


def evaluate(expr, binding, vocabularies):
    """Interpret a :class:`PatternFilter` over ``binding``."""
    if expr.op == "const":
        return expr.args[0]
    if expr.op == "func":
        fn, var = expr.args
        node = binding[var]
        if fn == "POS":
            return pos_class_of_tag(node.tag)
        if fn == "LEMMA":
            return node.lemma
        if fn == "TEXT":
            return node.lower
        raise ValueError(f"unknown function {fn}()")
    if expr.op == "and":
        return all(evaluate(a, binding, vocabularies) for a in expr.args)
    if expr.op == "or":
        return any(evaluate(a, binding, vocabularies) for a in expr.args)
    if expr.op == "not":
        return not evaluate(expr.args[0], binding, vocabularies)
    if expr.op == "cmp":
        comparator, left, right = expr.args
        lv = evaluate(left, binding, vocabularies)
        rv = evaluate(right, binding, vocabularies)
        return (lv == rv) if comparator == "=" else (lv != rv)
    if expr.op == "in":
        inner, vocab_name = expr.args
        value = evaluate(inner, binding, vocabularies)
        return str(value) in vocabularies[vocab_name]
    raise ValueError(f"unknown filter op {expr.op!r}")


def reference_match(pattern, graph, vocabularies):
    """All matches of ``pattern`` in ``graph``, by plain backtracking."""
    matches = []
    variables = sorted(pattern.variables())

    def filter_ok(binding):
        return pattern.filter is None or bool(
            evaluate(pattern.filter, binding, vocabularies)
        )

    if not pattern.edges:
        (var,) = variables
        for node in graph.nodes():
            binding = {var: node}
            if filter_ok(binding):
                matches.append(PatternMatch(pattern, binding))
        return matches

    def backtrack(edge_idx, binding):
        if edge_idx == len(pattern.edges):
            if filter_ok(binding):
                matches.append(PatternMatch(pattern, dict(binding)))
            return
        edge = pattern.edges[edge_idx]
        for graph_edge in graph.edges():
            if edge.label != "*" and graph_edge.label != edge.label:
                continue
            head, dep = graph_edge.head, graph_edge.dependent
            if head.is_root:
                continue
            bound_head = binding.get(edge.head)
            bound_dep = binding.get(edge.dependent)
            if bound_head is not None and bound_head.index != head.index:
                continue
            if bound_dep is not None and bound_dep.index != dep.index:
                continue
            added = []
            if bound_head is None:
                binding[edge.head] = head
                added.append(edge.head)
            if bound_dep is None:
                binding[edge.dependent] = dep
                added.append(edge.dependent)
            backtrack(edge_idx + 1, binding)
            for var in added:
                del binding[var]

    backtrack(0, {})
    return matches
