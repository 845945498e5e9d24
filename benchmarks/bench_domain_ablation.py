"""Ablation: reduced product (tnum × interval) vs each domain alone.

Listed in README.md's "Reproduction notes".  Over random expression
DAGs built from the operator mix BPF scalar code exhibits, measure the
mean log2 cardinality of the resulting abstract value under the tnum
domain, the interval domain, and their reduced product.  Lower = more
precise.

The headline shape to establish: the product is never worse than either
component; bitwise-heavy expressions are where the tnum (the paper's
domain) carries the verifier, and ranges alone are hopeless there.
"""

from __future__ import annotations


from repro.eval.domain_ablation import ablation_study

from .conftest import write_artifact


def test_domain_ablation(benchmark, out_dir):
    result = benchmark.pedantic(
        ablation_study, kwargs={"count": 400, "seed": 0}, rounds=1, iterations=1
    )
    assert result.unsound == 0

    n = result.expressions
    lines = [
        "Domain-precision ablation over random expression DAGs",
        f"  expressions evaluated: {n}",
        "",
        "  mean log2 |gamma| (lower = more precise):",
    ]
    for name in ("tnum", "interval", "product"):
        lines.append(f"    {name:<10} {result.mean_log2[name]:6.2f} bits")
    lines += [
        "",
        f"  tnum more precise than interval: {result.tnum_vs_interval_wins}",
        f"  interval more precise than tnum: {result.interval_vs_tnum_wins}",
        f"  product strictly beats tnum:     {result.product_vs_tnum_wins}",
        f"  product strictly beats interval: {result.product_vs_interval_wins}",
    ]
    write_artifact(out_dir, "domain_ablation.txt", "\n".join(lines))

    assert result.mean_log2["product"] <= result.mean_log2["tnum"]
    assert result.mean_log2["product"] <= result.mean_log2["interval"]
    assert result.product_vs_tnum_wins > 0
