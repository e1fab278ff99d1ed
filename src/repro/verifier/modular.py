"""Modular (assume-guarantee) verification (Section 5, Theorem 5.4).

``verify_modular(C, phi, psi, ...)`` checks ``C |=_psi phi``: every run of
the open composition ``C`` -- with nondeterministic environment
transitions interleaved -- that satisfies the environment specification
``psi`` also satisfies ``phi``.

The environment spec undergoes the paper's two translations, in order:

1. **Move relativization** (Definition 5.3): the spec describes the
   environment's own steps, so its temporal operators become ``X_alpha`` /
   ``U_alpha`` with ``alpha = move_ENV``.
2. **Observer-at-recipient translation**: an atom ``Q(x̄)`` for an
   environment *output* queue means "the environment sends ``Q(x̄)``";
   with lossy bounded channels the recipient can only observe
   ``X(received_Q -> Q(x̄))`` -- if a message arrives next step, it is
   that one.

The second translation inserts a plain ``X`` *inside* the scope of the
spec's FO quantifiers (see the paper's Example 5.2), which leaves the
LTL-over-FO-payload representation.  We recover it with a standard
one-step-history construction: since quantifiers commute with ``X`` (the
data domain is time-invariant),

    forall x̄ (A(x̄) -> X B(x̄))   ==   X forall x̄ (prev.A(x̄) -> B(x̄))

so each affected payload is rewritten into an FO formula over the *pair*
(previous snapshot, current snapshot) and prefixed with one outer ``X``.
The product system tracks the previous snapshot, and ``prev.R`` atoms read
it.  The violation search then looks for a run satisfying
``psi_translated & ~phi(nu)``, over pairs of the ids of one
:class:`~repro.verifier.graph.SharedExploration`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import VerificationError
from ..fo import formulas as fo
from ..fo.evaluator import evaluate
from ..fo.instance import Instance
from ..fo.schema import (
    ENVIRONMENT_NAME, RelationKind, RelationSymbol, Schema, move_name,
    received_name,
)
from ..ltl.formulas import LAtom, LTLFormula, land, limplies, lnot
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence, map_payloads, relativize
from ..ltlfo.parser import parse_ltlfo
from ..runtime.state import GlobalState
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..spec.rules import rename_formula_relations
from .atoms import OccursAtom, SharedSnapshotContext, bit_table
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .ltlfo_verifier import (
    _as_sentence, _check_restrictions, occurs_terms, sweep_valuations,
)
from .graph import SharedExploration
from .product import SearchBudget
from .result import VerificationResult

PREV_MARK = "@prev."


# -- environment-spec parsing ---------------------------------------------------


def environment_schema(composition: Composition) -> Schema:
    """The vocabulary of environment specs: the env channels, unqualified.

    ``?Q`` refers to queues the environment consumes (``E.Qin``), ``!Q``
    to queues it feeds (``E.Qout``), exactly as the paper's Example 5.1
    writes them from the credit agency's perspective.
    """
    symbols = []
    for chan in composition.env_in_channels():
        symbols.append(RelationSymbol(
            chan.name, chan.arity, RelationKind.IN_QUEUE,
            nested=chan.nested,
        ))
    for chan in composition.env_out_channels():
        symbols.append(RelationSymbol(
            chan.name, chan.arity, RelationKind.OUT_QUEUE,
            nested=chan.nested,
        ))
    return Schema(symbols)


def parse_env_spec(text: str, composition: Composition) -> LTLFOSentence:
    """Parse an environment spec against the environment schema.

    Payload relations are renamed to their ``ENV.Q`` composition-schema
    names.
    """
    if composition.is_closed:
        raise VerificationError(
            "environment specs only apply to open compositions"
        )
    schema = environment_schema(composition)
    parsed = parse_ltlfo(text, schema)
    mapping = {
        sym.name: f"{ENVIRONMENT_NAME}.{sym.name}" for sym in schema
    }
    body = map_payloads(
        parsed.body, lambda p: rename_formula_relations(p, mapping)
    )
    return LTLFOSentence(parsed.variables, body)


# -- the two translations -----------------------------------------------------


def _env_out_names(composition: Composition) -> dict[str, str]:
    """ENV.Q payload names of env-output channels -> received_Q names."""
    out: dict[str, str] = {}
    for chan in composition.env_out_channels():
        assert chan.receiver is not None
        out[f"{ENVIRONMENT_NAME}.{chan.name}"] = (
            f"{chan.receiver}.{received_name(chan.name)}"
        )
    return out


def _observer_translate_payload(payload: fo.Formula,
                                env_out: dict[str, str]
                                ) -> tuple[fo.Formula, bool]:
    """Rewrite env-output atoms to ``received_Q -> Q(x̄)`` (current step)
    and everything else to ``prev.``-marked atoms (previous step).

    Returns the rewritten formula and whether any env-output atom was
    found (if not, the payload needs no ``X`` shift at all).
    """
    found = False

    def rewrite(f: fo.Formula) -> fo.Formula:
        nonlocal found
        if isinstance(f, fo.Atom):
            target = env_out.get(f.rel)
            if target is not None:
                found = True
                return fo.implies(fo.Atom(target, ()), f)
            return fo.Atom(PREV_MARK + f.rel, f.terms)
        if isinstance(f, (fo.TrueF, fo.FalseF, fo.Eq)):
            return f
        if isinstance(f, fo.Not):
            return fo.Not(rewrite(f.body))
        if isinstance(f, fo.And):
            return fo.And(tuple(rewrite(c) for c in f.children))
        if isinstance(f, fo.Or):
            return fo.Or(tuple(rewrite(c) for c in f.children))
        if isinstance(f, fo.Implies):
            return fo.Implies(rewrite(f.antecedent), rewrite(f.consequent))
        if isinstance(f, (fo.Exists, fo.Forall)):
            cls = type(f)
            return cls(f.variables, rewrite(f.body))
        raise VerificationError(f"cannot translate payload node {f!r}")

    rewritten = rewrite(payload)
    return rewritten, found


def observer_translate(body: LTLFormula, composition: Composition
                       ) -> LTLFormula:
    """The observer-at-recipient translation, as a payload transformation.

    Payloads containing env-output atoms become ``X`` of a pair-snapshot
    FO formula (see module docstring); others are left untouched.
    """
    env_out = _env_out_names(composition)

    def transform(payload: fo.Formula) -> LTLFormula:
        rels = fo.relations(payload)
        if not (rels & set(env_out)):
            return LAtom(payload)
        rewritten, _found = _observer_translate_payload(payload, env_out)
        from ..ltl.formulas import lnext
        return lnext(LAtom(rewritten))

    # map_payloads wraps results in LAtom, so inline the traversal
    from ..ltl.formulas import (
        LAnd, LFalse, LNext, LNot, LOr, LRelease, LTrue, LUntil,
    )

    def walk(f: LTLFormula) -> LTLFormula:
        if isinstance(f, (LTrue, LFalse)):
            return f
        if isinstance(f, LAtom):
            return transform(f.ap)
        if isinstance(f, LNot):
            return LNot(walk(f.body))
        if isinstance(f, LNext):
            return LNext(walk(f.body))
        if isinstance(f, (LAnd, LOr, LUntil, LRelease)):
            cls = type(f)
            return cls(walk(f.left), walk(f.right))
        raise VerificationError(f"not an LTL formula: {f!r}")

    return walk(body)


def source_translate(body: LTLFormula, composition: Composition
                     ) -> LTLFormula:
    """Source-observed environment atoms (a library extension).

    The paper's observer-at-recipient translation (Definition 5.3) only
    constrains messages that *arrive immediately after a step where the
    spec's trigger held*; in particular a spec of the Example 5.1 shape
    cannot forbid unsolicited environment messages.  Because this
    library's environment model never loses its own sends (a send into a
    full queue is replaced by not sending, which produces the same run
    set), the environment's output is directly observable at the moment
    of enqueue: ``Q(x̄)`` holds at a snapshot iff a message arrived in
    ``Q`` at that step and it is ``x̄``.  This translation rewrites each
    env-output atom to ``received_Q & Q(x̄)``, giving specs that constrain
    *every* environment send.
    """
    env_out = _env_out_names(composition)

    def rewrite(f: fo.Formula) -> fo.Formula:
        if isinstance(f, fo.Atom):
            target = env_out.get(f.rel)
            if target is not None:
                return fo.conj(fo.Atom(target, ()), f)
            return f
        if isinstance(f, (fo.TrueF, fo.FalseF, fo.Eq)):
            return f
        if isinstance(f, fo.Not):
            return fo.Not(rewrite(f.body))
        if isinstance(f, fo.And):
            return fo.And(tuple(rewrite(c) for c in f.children))
        if isinstance(f, fo.Or):
            return fo.Or(tuple(rewrite(c) for c in f.children))
        if isinstance(f, fo.Implies):
            return fo.Implies(rewrite(f.antecedent), rewrite(f.consequent))
        if isinstance(f, (fo.Exists, fo.Forall)):
            cls = type(f)
            return cls(f.variables, rewrite(f.body))
        raise VerificationError(f"cannot translate payload node {f!r}")

    return map_payloads(body, rewrite)


def translate_env_spec(spec: LTLFOSentence, composition: Composition,
                       observer: str = "recipient") -> LTLFormula:
    """Both translations in the paper's (mandatory) order.

    First move-relativization (``X -> X_alpha``, ``U -> U_alpha`` with
    ``alpha = move_ENV``), then the observer rewrite -- the paper's
    recipient translation (whose inserted ``X`` operators must remain
    plain), or the library's source-observed extension
    (:func:`source_translate`).
    """
    if observer not in ("recipient", "source"):
        raise VerificationError(
            f"observer must be 'recipient' or 'source', got {observer!r}"
        )
    alpha = fo.Atom(move_name(ENVIRONMENT_NAME), ())
    relativized = relativize(spec.body, alpha)
    if observer == "source":
        return source_translate(relativized, composition)
    return observer_translate(relativized, composition)


# -- pair-snapshot exploration --------------------------------------------------


class PairCache:
    """Wraps a :class:`SharedExploration`, tracking the previous snapshot.

    Nodes are ``(previous id, current id)`` pairs of interned state ids
    (no previous id, ``None``, at an initial state); ``prev.R`` atoms of
    translated payloads read the previous snapshot's view (empty
    relations before the first step), and a counterexample run is the
    sequence of current snapshots.
    """

    def __init__(self, exploration: SharedExploration) -> None:
        self.exploration = exploration
        self.budget = exploration.budget

    def initial(self) -> tuple:
        return tuple((None, sid) for sid in self.exploration.initial())

    def successors_of(self, pair) -> tuple:
        cur = pair[1]
        return tuple((cur, nxt)
                     for nxt in self.exploration.successors_of(cur))

    def state_of(self, pair) -> GlobalState:
        return self.exploration.state_of(pair[1])

    @property
    def states_expanded(self) -> int:
        return self.exploration.states_expanded


#: The previous-state extension id of a pair with no previous state.
NO_PREVIOUS = -1


class PairEvaluator:
    """AP valuation over (previous, current) id pairs, as masks; views,
    active domains and FO truths come from the exploration's *shared*
    context.

    A closed pair formula's truth depends only on the extensions of the
    relations it reads: its ``@prev.R`` atoms read ``R`` at the previous
    state, its other atoms the current state.  So truths are keyed on
    the formula's id and the extension ids of the two relation sets
    (:meth:`SharedSnapshotContext.pair_truths`), :data:`NO_PREVIOUS`
    standing for the previous side at an initial state, and each is
    evaluated on the pair view of the first pair seen with those ids.
    """

    def __init__(self, shared: SharedSnapshotContext,
                 aps: frozenset) -> None:
        self.shared = shared
        self.bits = bit_table(aps)
        self._occurs = []
        self._fo = []
        for ap, bit in self.bits.items():
            if isinstance(ap, OccursAtom):
                self._occurs.append((bit, ap.value))
                continue
            rels = fo.relations(ap)
            previous = tuple(sorted(rel.removeprefix(PREV_MARK)
                                    for rel in rels
                                    if rel.startswith(PREV_MARK)))
            current = tuple(sorted(rel for rel in rels
                                   if not rel.startswith(PREV_MARK)))
            self._fo.append((bit, ap, previous, current,
                             shared.pair_truths(ap)))
        self._letter_cache: dict[tuple, int] = {}

    def _pair_view(self, prev: int | None, cur: int) -> Instance:
        view = self.shared.view(cur)
        if prev is not None:
            prev_view = self.shared.view(prev)
            marked = Instance({
                PREV_MARK + name: prev_view[name]
                for name in prev_view.relations()
            })
            view = view.merged(marked)
        return view

    def letter(self, pair) -> int:
        cached = self._letter_cache.get(pair)
        if cached is not None:
            return cached
        prev, cur = pair
        shared = self.shared
        mask = 0
        if self._occurs:
            present = shared.active_domain(cur)
            for bit, value in self._occurs:
                if value in present:
                    mask |= bit
        pair_view: Instance | None = None
        for bit, ap, previous, current, truths in self._fo:
            key = (NO_PREVIOUS if prev is None
                   else shared.extension_id(prev, previous),
                   shared.extension_id(cur, current))
            truth = truths.get(key)
            if truth is None:
                if pair_view is None:
                    pair_view = self._pair_view(prev, cur)
                truth = truths[key] = evaluate(ap, pair_view,
                                               shared.domain)
            if truth:
                mask |= bit
        self._letter_cache[pair] = mask
        return mask


# -- the modular verifier -----------------------------------------------------


def verify_modular(composition: Composition,
                   prop: LTLFOSentence | str,
                   env_spec: LTLFOSentence | str,
                   databases: Mapping[str, Instance],
                   semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                   domain: VerificationDomain | None = None,
                   allow_nonstrict: bool = False,
                   check_input_bounded: bool = True,
                   budget: SearchBudget | None = None,
                   env_value_domain=None,
                   valuation_candidates: Mapping[str, Sequence] | None = None,
                   observer: str = "recipient",
                   ) -> VerificationResult:
    """Decide ``C |=_psi phi`` for an open composition (Theorem 5.4).

    ``env_spec`` must be *strictly* input-bounded (no closure variables);
    with ``allow_nonstrict=True``, a non-strict spec is expanded into the
    finite conjunction of its instantiations over the verification domain
    -- sound and complete *for that domain*, consistent with Theorem 5.5's
    undecidability of the general non-strict problem.
    """
    if composition.is_closed:
        raise VerificationError(
            "modular verification applies to open compositions"
        )
    sentence = _as_sentence(prop, composition)
    spec = (parse_env_spec(env_spec, composition)
            if isinstance(env_spec, str) else env_spec)

    _check_restrictions(composition, sentence, check_input_bounded)

    # Theorem 5.4 restricts environment *specs* to flat environment
    # channels; nested environment channels may exist but may not be
    # mentioned by the spec.
    nested_env_names = {
        f"{ENVIRONMENT_NAME}.{chan.name}"
        for chan in composition.environment_channels() if chan.nested
    }
    offending = sorted(spec.relations() & nested_env_names)
    if offending:
        raise VerificationError(
            f"environment spec mentions nested channels {offending}; "
            "Theorem 5.4 restricts specs to flat environment channels"
        )

    if domain is None:
        domain = verification_domain(composition, [sentence], databases)
        extra = tuple(sorted(
            set(spec.constants()) - set(domain.constants), key=str
        ))
        if extra:
            domain = VerificationDomain(
                domain.constants + extra, domain.fresh
            )

    # translate the environment spec
    if spec.is_strict:
        premise = translate_env_spec(spec, composition, observer)
    else:
        if not allow_nonstrict:
            raise VerificationError(
                "the environment spec is not strictly input-bounded "
                "(Theorem 5.5: the non-strict problem is undecidable); "
                "pass allow_nonstrict=True for the bounded-domain "
                "expansion"
            )
        conjuncts = []
        for val in canonical_valuations(spec.variables, domain):
            inst_body = spec.instantiate(val)
            translated = translate_env_spec(
                LTLFOSentence((), inst_body), composition, observer
            )
            occurs = occurs_terms(val, domain)
            # Dom(rho)-restricted universal premise: valuations whose
            # fresh values never occur impose nothing
            conjuncts.append(limplies(land(*occurs), translated)
                             if occurs else translated)
        premise = land(*conjuncts)

    exploration = SharedExploration(
        composition, databases, domain.values, semantics, budget=budget,
        env_value_domain=env_value_domain)
    text = f"{sentence}  under env spec  {spec}"

    def unit(valuation):
        negated = lnot(sentence.instantiate(valuation))
        nba = ltl_to_buchi(land(premise, negated,
                                *occurs_terms(valuation, domain)))
        return nba, nba.aps

    return sweep_valuations(
        canonical_valuations(sentence.variables, domain,
                             valuation_candidates),
        PairCache(exploration), unit,
        lambda aps: PairEvaluator(exploration.shared, aps),
        text, domain, semantics)
