"""Deterministic typed-dependency parser for English questions.

This module replaces the Stanford Parser (paper Section 2.2) for the
register NL2CM targets: forum-style questions and requests.  It is a
transparent rule cascade rather than a statistical parser — in the same
spirit as the paper's preference for declarative, inspectable components:

1. **Chunking** — group tokens into base noun phrases (with internal
   ``det``/``amod``/``nn``/``num``/``poss`` edges), verb groups (main verb
   plus ``aux``/``auxpass``/``neg``), adjective phrases and loose tokens.
2. **Apposition merge** — proper-noun chunks separated by commas
   ("Forest Hotel, Buffalo") join into one entity-bearing NP via
   ``appos`` edges, which is what lets the entity linker see the full
   mention span.
3. **Clause assembly** — find the main predicate and attach subjects,
   objects, wh-phrases, prepositional phrases, relative clauses and
   conjunctions, handling the question constructions of the domain:
   copular wh-questions ("What are the best places ..."), subject-aux
   inversion ("What camera should I buy?"), yes/no questions
   ("Is chocolate milk good for kids?"), adverbial wh-questions
   ("Where do you go hiking?") and imperatives ("Recommend a hotel ...").

The output is a :class:`repro.nlp.graph.DepGraph` whose labels follow the
Stanford typed-dependencies naming (see ``DEPENDENCY_LABELS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ParsingError
from repro.nlp.graph import DepGraph, DepNode
from repro.nlp.lemma import Lemmatizer
from repro.nlp.postag import PosTagger, TaggedToken
from repro.nlp.tokenizer import Token, Tokenizer

__all__ = ["DependencyParser", "parse", "TEMPORAL_NOUNS"]

# Nouns that denote times/seasons; PPs whose object is temporal attach to
# the clause verb rather than the preceding noun ("visit Buffalo in the
# fall" -> prep(visit, in)).  Also consumed by the IX detector: a
# temporal PP on an individual verb joins the habit's fact-set.
_TEMPORAL_NOUNS = {
    "fall", "autumn", "winter", "spring", "summer", "morning", "evening",
    "afternoon", "night", "noon", "midnight", "weekend", "weekday", "day",
    "week", "month", "year", "season", "holiday", "vacation", "christmas",
    "easter", "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
    "sunday", "today", "tomorrow", "yesterday", "hour", "minute",
    # Meals behave temporally in habit PPs: "eat X for breakfast".
    "breakfast", "lunch", "dinner", "brunch",
}

#: Public view of the temporal-noun set.
TEMPORAL_NOUNS = frozenset(_TEMPORAL_NOUNS)

_COPULA_LEMMAS = {"be"}
_AUX_LEMMAS = {"be", "have", "do", "will", "can", "may", "must", "shall",
               "should", "ought", "need", "not"}

_SUBJECT_TAGS = ("NN", "NNS", "NNP", "NNPS", "PRP", "WP", "WDT", "CD", "DT")


@dataclass
class _Chunk:
    """A contiguous span grouped by the chunker.

    ``kind`` is one of ``NP`` (noun phrase), ``VG`` (verb group), ``ADJP``
    (predicative adjective phrase), ``PREP`` (preposition or TO), ``ADV``
    (loose adverb), ``CC``, ``PUNCT`` or ``OTHER``.  ``head`` is the
    chunk's head node; ``nodes`` all member nodes in order.
    """

    kind: str
    head: DepNode
    nodes: list[DepNode] = field(default_factory=list)
    # For VG: whether the main verb is a bare copula ("is", "are").
    is_copula: bool = False
    # For NP: whether the phrase is/starts with a wh-word.
    is_wh: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {' '.join(n.text for n in self.nodes)}>"


class DependencyParser:
    """Rule-cascade dependency parser producing Stanford-style graphs.

    The parser owns its tokenizer, tagger and lemmatizer; pass custom
    instances to extend the lexicon with domain terms::

        parser = DependencyParser(tagger=PosTagger(extra_lexicon={...}))
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        tagger: PosTagger | None = None,
        lemmatizer: Lemmatizer | None = None,
    ):
        self._tokenizer = tokenizer or Tokenizer()
        self._tagger = tagger or PosTagger()
        self._lemmatizer = lemmatizer or Lemmatizer()

    # -- public API ------------------------------------------------------------

    def parse(
        self, text: str, tokens: Sequence[Token] | None = None
    ) -> DepGraph:
        """Parse ``text`` (one sentence) into a dependency graph.

        ``tokens``, when given, must be what this parser's tokenizer
        returns for ``text`` (the verifier's tokens, say); the parser
        then skips tokenizing it again.

        Raises:
            ParsingError: if no predicate or head could be identified.
        """
        if tokens is None:
            tokens = self._tokenizer.tokenize(text)
        tagged = self._tagger.tag(tokens)
        return self.parse_tagged(tagged, sentence=text)

    def parse_tagged(
        self, tagged: list[TaggedToken], sentence: str = ""
    ) -> DepGraph:
        """Parse pre-tagged tokens (useful for tagger experiments)."""
        graph = DepGraph(sentence or " ".join(t.text for t in tagged))
        nodes = []
        for tt in tagged:
            node = DepNode(
                index=tt.token.index,
                text=tt.token.text,
                lemma=self._lemmatizer.lemmatize(tt.token.text, tt.tag),
                tag=tt.tag,
                start=tt.token.start,
                end=tt.token.end,
            )
            graph.add_node(node)
            nodes.append(node)

        chunks = self._chunk(graph, nodes)
        chunks = self._merge_appositions(graph, chunks)
        self._assemble(graph, chunks)
        self._attach_stranded(graph, nodes)
        return graph

    # -- stage 1: chunking -------------------------------------------------------

    def _chunk(self, graph: DepGraph, nodes: list[DepNode]) -> list[_Chunk]:
        chunks: list[_Chunk] = []
        i = 0
        n = len(nodes)
        while i < n:
            node = nodes[i]
            tag = node.tag
            if tag in ("PRP", "EX"):
                chunks.append(_Chunk("NP", node, [node]))
                i += 1
            elif tag in ("WP", "WP$") or (
                tag == "WDT" and not self._starts_np(nodes, i + 1)
            ):
                chunk = _Chunk("NP", node, [node])
                chunk.is_wh = True
                chunks.append(chunk)
                i += 1
            elif tag == "WRB":
                chunks.append(_Chunk("ADV", node, [node]))
                i += 1
            elif self._starts_np(nodes, i):
                chunk, i = self._read_np(graph, nodes, i)
                chunks.append(chunk)
            elif tag == "MD" or tag.startswith("V"):
                chunk, i = self._read_verb_group(graph, nodes, i)
                chunks.append(chunk)
            elif tag in ("IN", "TO"):
                chunks.append(_Chunk("PREP", node, [node]))
                i += 1
            elif tag.startswith("J"):
                chunk, i = self._read_adjp(graph, nodes, i)
                chunks.append(chunk)
            elif tag in ("RB", "RBR", "RBS", "RP"):
                chunks.append(_Chunk("ADV", node, [node]))
                i += 1
            elif tag == "CC":
                chunks.append(_Chunk("CC", node, [node]))
                i += 1
            elif tag in (",", ".", ":", "``", "''", "-LRB-", "-RRB-"):
                chunks.append(_Chunk("PUNCT", node, [node]))
                i += 1
            else:
                chunks.append(_Chunk("OTHER", node, [node]))
                i += 1
        return chunks

    @staticmethod
    def _starts_np(nodes: list[DepNode], i: int) -> bool:
        """True if an NP can start at position ``i``."""
        if i >= len(nodes):
            return False
        tag = nodes[i].tag
        if tag in ("DT", "PDT", "PRP$", "CD", "WDT", "WP$") or tag.startswith(
            "NN"
        ):
            return True
        # Adjective-initial NP: adjective(s) followed by a noun.
        if tag.startswith("J") or tag in ("VBG", "VBN", "RBS"):
            j = i
            while j < len(nodes) and (
                nodes[j].tag.startswith("J")
                or nodes[j].tag in ("VBG", "VBN", "RB", "RBS", "CD")
            ):
                j += 1
            return j < len(nodes) and nodes[j].tag.startswith("NN")
        return False

    def _read_np(
        self, graph: DepGraph, nodes: list[DepNode], i: int
    ) -> tuple[_Chunk, int]:
        """Read one base NP starting at ``i``; emit its internal edges."""
        start = i
        n = len(nodes)
        members: list[DepNode] = []
        predet = det = None
        is_wh = False

        if i < n and nodes[i].tag == "PDT":
            predet = nodes[i]
            members.append(nodes[i])
            i += 1
        if i < n and nodes[i].tag in ("DT", "PRP$", "WDT", "WP$"):
            det = nodes[i]
            if nodes[i].tag in ("WDT", "WP$"):
                is_wh = True
            members.append(nodes[i])
            i += 1

        modifiers: list[DepNode] = []
        while i < n and (
            nodes[i].tag.startswith("J")
            or nodes[i].tag in ("VBG", "VBN", "CD", "RBS", "RB")
        ):
            # An adverb inside an NP must be followed by an adjective
            # ("the most interesting places", "a really good camera").
            if nodes[i].tag in ("RBS", "RB") and not (
                i + 1 < n and nodes[i + 1].tag.startswith("J")
            ):
                break
            modifiers.append(nodes[i])
            members.append(nodes[i])
            i += 1

        noun_run: list[DepNode] = []
        while i < n and (nodes[i].tag.startswith("NN") or (
            nodes[i].tag == "POS"
        )):
            is_clitic = nodes[i].tag == "POS"
            noun_run.append(nodes[i])
            members.append(nodes[i])
            i += 1
            if is_clitic:
                # Adjectives may follow a possessive clitic:
                # "my kids' favorite dishes".
                while i < n and (
                    nodes[i].tag.startswith("J")
                    or nodes[i].tag in ("VBG", "VBN", "CD")
                ):
                    modifiers.append(nodes[i])
                    members.append(nodes[i])
                    i += 1

        if not noun_run:
            # Determiner-only NP ("that") or a dangling modifier run.
            if det is not None and not modifiers:
                chunk = _Chunk("NP", det, members)
                chunk.is_wh = is_wh
                return chunk, i
            if modifiers:
                head = modifiers[-1]
                chunk = _Chunk("ADJP", head, members)
                for mod in modifiers[:-1]:
                    label = "advmod" if mod.tag.startswith("R") else "amod"
                    graph.add_edge(head, mod, label)
                if det is not None:
                    graph.add_edge(head, det, "det")
                return chunk, i
            raise ParsingError(
                f"chunker expected a noun phrase at token {start}"
            )

        head, possessor = self._np_head(graph, noun_run)
        if predet is not None:
            graph.add_edge(head, predet, "predet")
        if det is not None:
            label = "poss" if det.tag in ("PRP$", "WP$") else "det"
            target = possessor if possessor is not None else head
            graph.add_edge(target, det, label)
        self._attach_np_modifiers(graph, head, modifiers)

        chunk = _Chunk("NP", head, members)
        chunk.is_wh = is_wh
        return chunk, i

    def _np_head(
        self, graph: DepGraph, noun_run: list[DepNode]
    ) -> tuple[DepNode, DepNode | None]:
        """Pick the NP head and attach compound/possessive edges.

        The head is the last noun; earlier nouns are ``nn`` compounds.  A
        ``POS`` clitic splits the run into possessor + possessed.
        """
        pos_index = next(
            (k for k, nd in enumerate(noun_run) if nd.tag == "POS"), None
        )
        if pos_index is not None and 0 < pos_index < len(noun_run) - 1:
            possessor_run = noun_run[:pos_index]
            clitic = noun_run[pos_index]
            possessed_run = noun_run[pos_index + 1:]
            possessor = possessor_run[-1]
            for other in possessor_run[:-1]:
                graph.add_edge(possessor, other, "nn")
            head = possessed_run[-1]
            for other in possessed_run[:-1]:
                graph.add_edge(head, other, "nn")
            graph.add_edge(head, possessor, "poss")
            graph.add_edge(possessor, clitic, "possessive")
            return head, possessor

        real_nouns = [nd for nd in noun_run if nd.tag != "POS"]
        head = real_nouns[-1]
        for other in real_nouns[:-1]:
            graph.add_edge(head, other, "nn")
        return head, None

    def _attach_np_modifiers(
        self, graph: DepGraph, head: DepNode, modifiers: list[DepNode]
    ) -> None:
        """Attach adjective/number/adverb modifiers inside an NP."""
        k = 0
        while k < len(modifiers):
            mod = modifiers[k]
            if mod.tag in ("RBS", "RB") and k + 1 < len(modifiers):
                # "most interesting" -> advmod(interesting, most)
                graph.add_edge(modifiers[k + 1], mod, "advmod")
                k += 1
                continue
            if mod.tag == "CD":
                graph.add_edge(head, mod, "num")
            elif mod.tag.startswith("R"):
                graph.add_edge(head, mod, "advmod")
            else:
                graph.add_edge(head, mod, "amod")
            k += 1

    def _read_verb_group(
        self, graph: DepGraph, nodes: list[DepNode], i: int
    ) -> tuple[_Chunk, int]:
        """Read modal/aux chain + adverbs + main verb starting at ``i``."""
        n = len(nodes)
        members: list[DepNode] = []
        auxes: list[DepNode] = []
        negs: list[DepNode] = []
        advs: list[DepNode] = []
        main: DepNode | None = None

        while i < n:
            node = nodes[i]
            tag = node.tag
            if tag == "MD":
                auxes.append(node)
                members.append(node)
                i += 1
            elif tag.startswith("V"):
                # A verb is an auxiliary if another verb follows it within
                # the group (allowing adverbs/negation between).
                j = i + 1
                while j < n and nodes[j].tag in ("RB", "RBR"):
                    j += 1
                if (
                    node.lemma in _AUX_LEMMAS
                    and j < n
                    and nodes[j].tag.startswith("V")
                ):
                    auxes.append(node)
                    members.append(node)
                    i += 1
                else:
                    main = node
                    members.append(node)
                    i += 1
                    break
            elif tag in ("RB", "RBR") and members:
                if node.lemma == "not":
                    negs.append(node)
                else:
                    advs.append(node)
                members.append(node)
                i += 1
            else:
                break

        if main is None:
            if not auxes:
                raise ParsingError(f"verb group without a verb at token {i}")
            main = auxes.pop()  # bare copula/aux is the predicate

        is_passive = bool(
            auxes
            and main.tag == "VBN"
            and any(a.lemma == "be" for a in auxes)
        )
        for aux in auxes:
            label = "auxpass" if (is_passive and aux.lemma == "be") else "aux"
            graph.add_edge(main, aux, label)
        for neg in negs:
            graph.add_edge(main, neg, "neg")
        for adv in advs:
            graph.add_edge(main, adv, "advmod")

        chunk = _Chunk("VG", main, members)
        chunk.is_copula = (
            main.lemma in _COPULA_LEMMAS and main.tag != "VBN"
        )
        # Particle: "pick up", "eat out".
        if i < n and nodes[i].tag == "RP":
            graph.add_edge(main, nodes[i], "prt")
            chunk.nodes.append(nodes[i])
            i += 1
        return chunk, i

    def _read_adjp(
        self, graph: DepGraph, nodes: list[DepNode], i: int
    ) -> tuple[_Chunk, int]:
        """Read a predicative adjective phrase ("good", "very popular")."""
        members = [nodes[i]]
        head = nodes[i]
        i += 1
        while i < len(nodes) and nodes[i].tag.startswith("J"):
            graph.add_edge(nodes[i], head, "amod")
            head = nodes[i]
            members.append(nodes[i])
            i += 1
        return _Chunk("ADJP", head, members), i

    # -- stage 2: apposition merge -------------------------------------------------

    def _merge_appositions(
        self, graph: DepGraph, chunks: list[_Chunk]
    ) -> list[_Chunk]:
        """Join ``NNP-NP , NNP-NP`` sequences into one NP with ``appos``.

        This keeps entity mentions such as "Forest Hotel, Buffalo" in a
        single phrase so that downstream entity linking sees the whole
        span.  The merge only fires when both sides are proper-noun
        headed, to avoid swallowing a following clause subject
        ("..., we should visit ...").
        """
        out: list[_Chunk] = []
        i = 0
        while i < len(chunks):
            chunk = chunks[i]
            if chunk.kind == "NP" and chunk.head.is_proper_noun:
                while (
                    i + 2 < len(chunks)
                    and chunks[i + 1].kind == "PUNCT"
                    and chunks[i + 1].head.text == ","
                    and chunks[i + 2].kind == "NP"
                    and chunks[i + 2].head.is_proper_noun
                ):
                    comma = chunks[i + 1]
                    tail = chunks[i + 2]
                    graph.add_edge(chunk.head, tail.head, "appos")
                    graph.add_edge(chunk.head, comma.head, "punct")
                    chunk.nodes.extend(comma.nodes)
                    chunk.nodes.extend(tail.nodes)
                    i += 2
            out.append(chunk)
            i += 1
        return out

    # -- stage 3: clause assembly ----------------------------------------------------

    def _assemble(self, graph: DepGraph, chunks: list[_Chunk]) -> None:
        # Punctuation chunks stay in the stream: a comma is the cue for
        # non-restrictive relative-clause attachment.  Every attachment
        # loop skips PUNCT; stranded punctuation is attached at the end.
        if all(c.kind == "PUNCT" for c in chunks):
            raise ParsingError("sentence has no content chunks")

        root = self._build_main_clause(graph, chunks)
        if root is None:
            raise ParsingError(
                f"could not find a predicate in: {graph.sentence!r}"
            )
        graph.add_edge(graph.root_node, root, "root")

    def _build_main_clause(
        self, graph: DepGraph, chunks: list[_Chunk]
    ) -> DepNode | None:
        """Build the main clause; returns the sentence head node."""
        vg_positions = [k for k, c in enumerate(chunks) if c.kind == "VG"]
        if not vg_positions:
            # Verbless fragment ("Best pizza in town?") — head = first NP.
            return self._assemble_fragment(graph, chunks)

        first_vg = vg_positions[0]
        vg = chunks[first_vg]

        # --- copular question/statement: "... be NP/ADJP ..." -------------
        if vg.is_copula:
            return self._assemble_copular(graph, chunks, first_vg)

        # --- subject-aux inversion: "What camera should I buy?",
        #     "Where do you hike?", "Do you like sushi?" -------------------
        if self._is_inversion(chunks, first_vg):
            return self._assemble_inversion(graph, chunks, first_vg)

        # --- plain clause (declarative, wh-subject question, imperative) --
        return self._assemble_plain(graph, chunks, first_vg)

    def _assemble_fragment(
        self, graph: DepGraph, chunks: list[_Chunk]
    ) -> DepNode | None:
        nps = [c for c in chunks if c.kind in ("NP", "ADJP")]
        if not nps:
            return None
        head = nps[0].head
        pos = chunks.index(nps[0])
        self._attach_trailing(graph, chunks, pos + 1, head, head)
        for chunk in chunks[:pos]:
            if chunk.kind == "ADV":
                graph.add_edge(head, chunk.head, "advmod")
        return head

    def _assemble_copular(
        self, graph: DepGraph, chunks: list[_Chunk], vg_pos: int
    ) -> DepNode | None:
        """Copular clauses.

        * "What are the most interesting places ..." — root is the
          predicate NP head; the wh-word is ``attr``; the copula ``cop``.
        * "Is chocolate milk good for kids?" — root is the predicate
          (ADJP or second NP); the NP after the copula is the subject.
        * "Buffalo is a city" — root is the predicate NP; first NP subject.
        """
        cop = chunks[vg_pos].head
        pre = chunks[:vg_pos]
        post = chunks[vg_pos + 1:]

        self._attach_pre_pps(graph, pre)

        # Only a bare wh-pronoun ("What are ...") is the attr; a
        # wh-determined NP ("Which museums are ...") is the subject.
        wh = next(
            (c for c in pre if c.kind == "NP" and c.is_wh
             and c.head.tag == "WP"),
            None,
        )
        wh_adv = next((c for c in pre if c.kind == "ADV"
                       and c.head.tag == "WRB"), None)
        pre_np = next(
            (c for c in pre if c.kind == "NP" and c is not wh), None
        )
        post_np_pos = next(
            (k for k, c in enumerate(post) if c.kind in ("NP", "ADJP")), None
        )

        if wh is not None and post_np_pos is not None:
            # "What are the places..." — predicate NP is the root.
            pred = post[post_np_pos].head
            graph.add_edge(pred, cop, "cop")
            graph.add_edge(pred, wh.head, "attr")
            if pre_np is not None:
                graph.add_edge(pred, pre_np.head, "nsubj")
            self._attach_trailing(
                graph, post, post_np_pos + 1, pred, pred
            )
            return pred

        if post_np_pos is not None:
            post_nps = [c for c in post if c.kind in ("NP", "ADJP")]
            if pre_np is not None:
                # Declarative copular: "Buffalo is a city."
                pred = post_nps[0].head
                graph.add_edge(pred, cop, "cop")
                graph.add_edge(pred, pre_np.head, "nsubj")
                self._attach_trailing(
                    graph, post, post_np_pos + 1, pred, pred
                )
                if wh_adv is not None:
                    graph.add_edge(pred, wh_adv.head, "advmod")
                return pred
            if len(post_nps) >= 2:
                # Yes/no copular question: "Is chocolate milk good ...?"
                subj = post_nps[0].head
                pred = post_nps[1].head
                graph.add_edge(pred, cop, "cop")
                graph.add_edge(pred, subj, "nsubj")
                pred_pos = post.index(post_nps[1])
                self._attach_trailing(graph, post, pred_pos + 1, pred, pred)
                return pred
            # "Where is the nearest pharmacy?"
            pred = post_nps[0].head
            graph.add_edge(pred, cop, "cop")
            if wh_adv is not None:
                graph.add_edge(pred, wh_adv.head, "advmod")
            pred_pos = post.index(post_nps[0])
            self._attach_trailing(graph, post, pred_pos + 1, pred, pred)
            return pred

        # Bare copula with nothing after — treat copula itself as head.
        if pre_np is not None:
            graph.add_edge(cop, pre_np.head, "nsubj")
        if wh is not None:
            graph.add_edge(cop, wh.head, "attr")
        return cop

    @staticmethod
    def _attach_pre_pps(graph: DepGraph, pre: list[_Chunk]) -> None:
        """Attach "NP PREP NP" PPs before the copula.

        "Which museums [in Paris] are ..." — the PP modifies the subject
        NP; both PP chunks are consumed so later assembly sees only the
        subject.
        """
        i = 0
        while i < len(pre):
            chunk = pre[i]
            if (
                chunk.kind == "PREP"
                and i > 0
                and pre[i - 1].kind == "NP"
                and i + 1 < len(pre)
                and pre[i + 1].kind == "NP"
            ):
                host = pre[i - 1].head
                prep = chunk.head
                pobj_chunk = pre[i + 1]
                graph.add_edge(host, prep, "prep")
                graph.add_edge(prep, pobj_chunk.head, "pobj")
                # Fold the PP into the host NP chunk.
                pre[i - 1].nodes.extend(chunk.nodes)
                pre[i - 1].nodes.extend(pobj_chunk.nodes)
                del pre[i:i + 2]
                continue
            i += 1

    @staticmethod
    def _is_inversion(chunks: list[_Chunk], vg_pos: int) -> bool:
        """Subject-aux inversion: an aux-only VG followed by NP + VG."""
        vg = chunks[vg_pos]
        head = vg.head
        if not (head.tag == "MD" or head.lemma in ("do", "have", "be")):
            return False
        rest = chunks[vg_pos + 1:]
        np_pos = next(
            (k for k, c in enumerate(rest) if c.kind == "NP"), None
        )
        if np_pos is None:
            return False
        return any(c.kind == "VG" for c in rest[np_pos + 1:])

    def _assemble_inversion(
        self, graph: DepGraph, chunks: list[_Chunk], aux_pos: int
    ) -> DepNode | None:
        """"What camera should I buy?" / "Where do you go hiking?"."""
        aux_chunk = chunks[aux_pos]
        rest = chunks[aux_pos + 1:]
        subj_pos = next(k for k, c in enumerate(rest) if c.kind == "NP")
        subj = rest[subj_pos].head
        vg_pos = next(
            k for k, c in enumerate(rest[subj_pos + 1:], subj_pos + 1)
            if c.kind == "VG"
        )
        main = rest[vg_pos].head

        graph.add_edge(main, aux_chunk.head, "aux")
        graph.add_edge(main, subj, "nsubj")

        # Pre-aux material: a fronted NP is the displaced object of the
        # main verb ("What type of camera should I buy" -> dobj(buy, type))
        # unless a fronted preposition governs it ("At what container
        # should I store coffee" -> prep(store, At), pobj(At, container)).
        fronted = self._scan_pre(graph, chunks[:aux_pos], main)
        if fronted is not None:
            graph.add_edge(main, fronted, "dobj")

        self._attach_trailing(graph, rest, vg_pos + 1, main, main)
        return main

    def _assemble_plain(
        self, graph: DepGraph, chunks: list[_Chunk], vg_pos: int
    ) -> DepNode | None:
        """Declaratives, wh-subject questions and imperatives."""
        main = chunks[vg_pos].head
        pre = chunks[:vg_pos]

        antecedent = self._np_relative_antecedent(pre)
        if antecedent is not None:
            # NP NP VG fragment: "the places we visit (in the fall)".
            # The first NP is the phrase head; the clause modifies it.
            subj_chunk = pre[-1]
            rest_pre = [c for c in pre if c is not subj_chunk]
            head = self._scan_pre(graph, rest_pre, antecedent)
            graph.add_edge(antecedent, main, "rcmod")
            graph.add_edge(main, subj_chunk.head, "nsubj")
            self._consume_clause(
                graph, chunks, vg_pos + 1, main, subj_chunk.head
            )
            return antecedent

        subj = self._scan_pre(graph, pre, main)
        if subj is not None:
            graph.add_edge(main, subj, "nsubj")
        self._attach_trailing(graph, chunks, vg_pos + 1, main, main)
        return main

    @staticmethod
    def _np_relative_antecedent(pre: list[_Chunk]) -> DepNode | None:
        """Detect an "NP ... NP VG" reduced-relative fragment head.

        Returns the antecedent head when the pre-verbal chunks end with
        two adjacent free NPs (neither a preposition object), the second
        being a plausible clause subject — as in "the places we visit".
        """
        if not pre or pre[-1].kind != "NP":
            return None
        frees: list[_Chunk] = []
        prev_kind: str | None = None
        for chunk in pre:
            if chunk.kind == "NP" and prev_kind not in ("PREP", "CC"):
                frees.append(chunk)
            if chunk.kind != "PUNCT":
                prev_kind = chunk.kind
        if len(frees) < 2 or pre[-1] is not frees[-1]:
            return None
        subject = frees[-1].head
        antecedent = frees[-2].head
        if subject.tag not in ("PRP", "NN", "NNS", "NNP", "NNPS"):
            return None
        if not antecedent.is_noun or antecedent.tag == "PRP" or (
            antecedent.lemma in _TEMPORAL_NOUNS
        ):
            return None
        return antecedent

    def _scan_pre(
        self, graph: DepGraph, pre: list[_Chunk], main: DepNode
    ) -> DepNode | None:
        """Attach pre-verbal material; return the free nominal head.

        The returned head is the first NP not consumed as a preposition
        object — the subject in a plain clause, the fronted object under
        inversion.  PPs attach to the preceding nominal when there is
        one ("Which hotel [in Vegas] ...") and to the main predicate when
        fronted ("[At] what container should I ...").  WRB adverbs and
        loose adverbs become ``advmod`` of the predicate.
        """
        free: DepNode | None = None
        anchor: DepNode | None = None
        pending_prep: DepNode | None = None
        conj_anchor: DepNode | None = None
        for chunk in pre:
            if chunk.kind == "PREP":
                pending_prep = chunk.head
            elif chunk.kind in ("NP", "ADJP"):
                if pending_prep is not None:
                    site = anchor if anchor is not None else main
                    graph.add_edge(site, pending_prep, "prep")
                    graph.add_edge(pending_prep, chunk.head, "pobj")
                    pending_prep = None
                    anchor = chunk.head
                elif conj_anchor is not None:
                    # "My friends and I ..." -> conj(friends, I)
                    graph.add_edge(conj_anchor, chunk.head, "conj")
                    conj_anchor = None
                else:
                    if free is None:
                        free = chunk.head
                    else:
                        graph.add_edge(main, chunk.head, "dep")
                    anchor = chunk.head
            elif chunk.kind == "ADV":
                graph.add_edge(main, chunk.head, "advmod")
            elif chunk.kind == "CC" and anchor is not None:
                graph.add_edge(anchor, chunk.head, "cc")
                conj_anchor = anchor
            elif chunk.kind == "VG":
                graph.add_edge(main, chunk.head, "dep")
        if pending_prep is not None:
            graph.add_edge(main, pending_prep, "prep")
        return free

    # -- trailing material: objects, PPs, relative clauses, conjunction ----------

    def _attach_trailing(
        self,
        graph: DepGraph,
        chunks: list[_Chunk],
        start: int,
        verb: DepNode,
        last_nominal: DepNode,
    ) -> None:
        """Attach everything after the predicate head.

        ``verb`` is the governing predicate; ``last_nominal`` tracks the
        most recent noun head for PP attachment and relative clauses.
        """
        i = start
        got_dobj = verb.is_verb and bool(graph.children(verb, "dobj"))
        pending_prep: DepNode | None = None
        n = len(chunks)

        while i < n:
            chunk = chunks[i]
            kind = chunk.kind

            if kind == "PREP":
                if chunk.head.tag == "TO" and i + 1 < n and (
                    chunks[i + 1].kind == "VG"
                ):
                    # to-infinitive: "want to visit ..." -> xcomp
                    inf = chunks[i + 1].head
                    graph.add_edge(verb, inf, "xcomp")
                    graph.add_edge(inf, chunk.head, "aux")
                    i = self._consume_clause(
                        graph, chunks, i + 2, inf, subject=None
                    )
                    continue
                pending_prep = chunk.head
                attach_to = self._pp_attachment_site(
                    graph, verb, last_nominal, chunk.head, chunks, i
                )
                graph.add_edge(attach_to, chunk.head, "prep")
                i += 1
                continue

            if kind in ("NP", "ADJP"):
                head = chunk.head
                if pending_prep is not None:
                    graph.add_edge(pending_prep, head, "pobj")
                    pending_prep = None
                    last_nominal = head
                elif not got_dobj and verb.is_verb and not chunk.is_wh:
                    graph.add_edge(verb, head, "dobj")
                    got_dobj = True
                    last_nominal = head
                else:
                    # Possible relative clause subject: "places we should
                    # visit" — NP followed by VG.  A comma before the NP
                    # signals attachment to the clause head rather than
                    # the nearest nominal ("places near X, we should
                    # visit" modifies "places", not "X").
                    if i + 1 < n and chunks[i + 1].kind == "VG":
                        antecedent = last_nominal
                        if (
                            i > start
                            and chunks[i - 1].kind == "PUNCT"
                            and chunks[i - 1].head.text == ","
                            and not verb.is_verb
                        ):
                            antecedent = verb
                        i = self._attach_relative_clause(
                            graph, chunks, i, antecedent
                        )
                        continue
                    graph.add_edge(verb, head, "dep")
                    last_nominal = head
                i += 1
                continue

            if kind == "VG":
                # Relative clause without an overt subject NP before it
                # ("places recommended by locals") or a stray clause.
                i = self._attach_relative_clause(
                    graph, chunks, i, last_nominal, subjectless=True
                )
                continue

            if kind == "CC":
                i = self._attach_conjunct(
                    graph, chunks, i, verb, last_nominal, pending_prep
                )
                pending_prep = None
                continue

            if kind == "ADV":
                graph.add_edge(verb, chunk.head, "advmod")
                i += 1
                continue

            if kind == "PUNCT":
                i += 1
                continue

            graph.add_edge(verb, chunk.head, "dep")
            i += 1

    def _pp_attachment_site(
        self,
        graph: DepGraph,
        verb: DepNode,
        last_nominal: DepNode,
        prep: DepNode,
        chunks: list[_Chunk],
        prep_pos: int,
    ) -> DepNode:
        """Choose noun vs. verb attachment for a PP.

        Rule: attach to the immediately preceding nominal, unless the
        preposition's object is temporal ("in the fall"), in which case
        the clause predicate governs it.
        """
        obj_head = None
        for chunk in chunks[prep_pos + 1:]:
            if chunk.kind in ("NP", "ADJP"):
                obj_head = chunk.head
                break
            if chunk.kind != "ADV":
                break
        if obj_head is not None and obj_head.lemma in _TEMPORAL_NOUNS:
            return verb
        if last_nominal is not None and not last_nominal.is_root and (
            last_nominal.index != verb.index
        ):
            prev = chunks[prep_pos - 1] if prep_pos > 0 else None
            if prev is not None and prev.kind in ("NP", "ADJP") and (
                prev.head.index == last_nominal.index
                or last_nominal.index in {m.index for m in prev.nodes}
            ):
                return last_nominal
        return verb

    def _attach_relative_clause(
        self,
        graph: DepGraph,
        chunks: list[_Chunk],
        i: int,
        antecedent: DepNode,
        subjectless: bool = False,
    ) -> int:
        """Attach "NP VG ..." or "VG ..." after a nominal as ``rcmod``."""
        if subjectless:
            subject = None
            vg_pos = i
        else:
            subject = chunks[i].head
            vg_pos = i + 1
        verb = chunks[vg_pos].head
        if antecedent.is_root:
            raise ParsingError(
                "relative clause with no antecedent in "
                f"{graph.sentence!r}"
            )
        # After a verb ("enjoy visiting museums") the embedded clause is a
        # complement, not a relative clause.
        label = "xcomp" if antecedent.is_verb else "rcmod"
        graph.add_edge(antecedent, verb, label)
        if subject is not None:
            graph.add_edge(verb, subject, "nsubj")
        return self._consume_clause(
            graph, chunks, vg_pos + 1, verb, subject
        )

    def _consume_clause(
        self,
        graph: DepGraph,
        chunks: list[_Chunk],
        start: int,
        verb: DepNode,
        subject: DepNode | None,
    ) -> int:
        """Attach objects/PPs of an embedded clause; return next index."""
        i = start
        n = len(chunks)
        pending_prep: DepNode | None = None
        got_dobj = False
        last_nominal = verb
        while i < n:
            chunk = chunks[i]
            if chunk.kind == "PREP":
                pending_prep = chunk.head
                site = self._pp_attachment_site(
                    graph, verb, last_nominal, chunk.head, chunks, i
                )
                graph.add_edge(site, chunk.head, "prep")
                i += 1
            elif chunk.kind in ("NP", "ADJP"):
                if pending_prep is not None:
                    graph.add_edge(pending_prep, chunk.head, "pobj")
                    pending_prep = None
                elif not got_dobj:
                    graph.add_edge(verb, chunk.head, "dobj")
                    got_dobj = True
                else:
                    graph.add_edge(verb, chunk.head, "dep")
                last_nominal = chunk.head
                i += 1
            elif chunk.kind == "ADV":
                graph.add_edge(verb, chunk.head, "advmod")
                i += 1
            elif chunk.kind == "PUNCT":
                i += 1
            elif chunk.kind == "CC":
                i = self._attach_conjunct(
                    graph, chunks, i, verb, last_nominal, pending_prep
                )
                pending_prep = None
            else:
                break
        return i

    def _attach_conjunct(
        self,
        graph: DepGraph,
        chunks: list[_Chunk],
        cc_pos: int,
        verb: DepNode,
        last_nominal: DepNode,
        pending_prep: DepNode | None,
    ) -> int:
        """Attach "CC X" as a conjunct of the preceding same-kind item."""
        cc = chunks[cc_pos].head
        if cc_pos + 1 >= len(chunks):
            graph.add_edge(verb, cc, "cc")
            return cc_pos + 1
        nxt = chunks[cc_pos + 1]
        if nxt.kind in ("NP", "ADJP") and not last_nominal.is_root and (
            last_nominal.index != verb.index
        ):
            graph.add_edge(last_nominal, cc, "cc")
            graph.add_edge(last_nominal, nxt.head, "conj")
        elif nxt.kind == "VG":
            graph.add_edge(verb, cc, "cc")
            graph.add_edge(verb, nxt.head, "conj")
        else:
            graph.add_edge(verb, cc, "cc")
            graph.add_edge(verb, nxt.head, "dep")
        return cc_pos + 2

    # -- cleanup -------------------------------------------------------------------

    def _attach_stranded(
        self, graph: DepGraph, nodes: list[DepNode]
    ) -> None:
        """Attach any node the cascade missed to the sentence head.

        Punctuation gets ``punct``; anything else ``dep``.  This keeps
        the output a connected tree regardless of construction gaps.
        """
        head = graph.head
        if head is None:
            raise ParsingError(f"no root found for {graph.sentence!r}")
        for node in nodes:
            if graph.parent_edge(node) is None:
                label = "punct" if not node.is_word else "dep"
                graph.add_edge(head, node, label)


_DEFAULT = DependencyParser()


def parse(text: str) -> DepGraph:
    """Parse with a shared default :class:`DependencyParser`."""
    return _DEFAULT.parse(text)
