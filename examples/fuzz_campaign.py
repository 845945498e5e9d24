#!/usr/bin/env python3
"""Run a differential fuzzing campaign and dissect what it does.

Three demonstrations:

1. a clean campaign — random verifier-plausible programs, each executed
   concretely on many inputs with every register checked against the
   verifier's abstract state (0 violations expected);
2. the same campaign with a *deliberately broken* transfer function
   (abstract addition claiming its result is always even) — the oracle
   catches the lie, and delta-debugging shrinks the counterexample to a
   few instructions;
3. corpus persistence — the failure round-trips through JSON so it can
   be replayed by a later build.

Each campaign is the one ``repro fuzz`` runs: one round of freshly
generated programs, no mutation feedback (``fuzz_spec``).

Run:  python examples/fuzz_campaign.py
"""

from repro.core.tnum import Tnum
from repro.fuzz import Corpus, fuzz_spec, run_precision_campaign


def clean_campaign() -> None:
    print("=== 1. clean campaign (budget 200, seed 42) ===")
    result = run_precision_campaign(fuzz_spec(budget=200, seed=42))
    print(result.stats.summary())
    assert result.ok, "the shipped verifier should be sound"
    print()


def broken_verifier_campaign() -> Corpus:
    print("=== 2. campaign against a broken abstract addition ===")
    import repro.domains.product as product

    real_add = product.tnum_add

    def buggy_add(p: Tnum, q: Tnum) -> Tnum:
        t = real_add(p, q)
        if t.is_bottom():
            return t
        # Claim the low bit of every sum is known-zero.  Unsound: odd
        # concrete sums now escape the abstract value.
        return Tnum(t.value & ~1, t.mask & ~1, t.width)

    product.tnum_add = buggy_add
    try:
        result = run_precision_campaign(
            fuzz_spec(budget=60, seed=0, profile="alu")
        )
    finally:
        product.tnum_add = real_add

    print(result.stats.summary())
    assert not result.ok, "the injected bug must be caught"
    corpus = result.corpus
    entry = corpus.violations()[0]
    print(f"\nfirst violation: {entry.violation['message']}")
    shrunk = entry.shrunk_program()
    print(f"shrunk witness ({len(shrunk)} instructions):")
    for line in shrunk.disassemble().splitlines():
        print(f"    {line}")
    print()
    return corpus


def corpus_roundtrip(corpus: Corpus) -> None:
    print("=== 3. corpus persistence ===")
    text = corpus.to_json()
    reloaded = Corpus.from_json(text)
    replay = reloaded.violations()[0].shrunk_program()
    print(f"corpus JSON: {len(text)} bytes, {len(reloaded)} entries")
    print(f"replayed witness still {len(replay)} instructions — "
          "bit-exact through the kernel wire format")


def main() -> None:
    clean_campaign()
    corpus = broken_verifier_campaign()
    corpus_roundtrip(corpus)


if __name__ == "__main__":
    main()
