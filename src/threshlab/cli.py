"""Command line front end.

    threshlab gen triangles 5                family in the text format
    threshlab qsmall H.txt --q 0.3           decide q-smallness at a fixed q
    threshlab qsmall H.txt [--tol T]         largest certified-small q
    threshlab spread H.txt                   spread with its witness subset
    threshlab pc H.txt                       exact critical probability
    threshlab pc H.txt --mc --trials 4096    Monte Carlo bracket
    threshlab run-halving H.txt --q 0.05     one halving trace
    threshlab run-retry H.txt --q 0.05 --eps 0.25
    threshlab run-restart H.txt --q 0.05 --eps 0.25
    threshlab verify constants               one PASS/FAIL line per check
    threshlab verify threshold|firstmoment|spreadsmall H.txt
    threshlab verify highprob H.txt [--q Q --eps E --trials N --seed S]
    threshlab verify fragweight H.txt [--q Q --L F --trials N --seed S]
    threshlab check-cert H.txt cert.json     validate a stored certificate
    threshlab suite --out results/           full acceptance suite

A command accepts only the options its library call reads; any other is a
usage error.  Exit status: 0 on success and passing checks, 1 when a
verification or a certificate fails, 2 on usage, format, or resource errors.
THRESHLAB_SEED, THRESHLAB_TRIALS and THRESHLAB_WORKERS override the matching
defaults.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certify import (
    is_q_small,
    max_small_q,
    read_cover,
    spread_of,
    validate_cover,
    write_cover,
)
from .core import (
    FormatError,
    ResourceLimitError,
    Rng,
    ThreshlabError,
    TrivialHypergraphError,
    format_hypergraph,
    read_hypergraph,
)
from .estimate import (
    CheckReport,
    constant_check,
    critical_probability,
    mc_critical_probability,
    verify_first_moment,
    verify_fragment_weight,
    verify_highprob_bound,
    verify_spread_not_small,
    verify_threshold_bound,
)
from .families import make_family
from .process import (
    run_halving,
    run_restart,
    run_retry,
    trace_rounds_to_csv,
    trace_to_json,
)
from .suite import DEFAULT_SEED, Q_FRAG, run_suite

__all__ = ["main"]


def _env_int(name: str, fallback: int | None) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise FormatError(f"{name} must be an integer, got {raw!r}") from exc


def _given(**options) -> dict:
    """The options the user set; an unset one (None) keeps the library
    function's own default."""
    return {k: v for k, v in options.items() if v is not None}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_reports(reports: list[CheckReport]) -> int:
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        vac = " (vacuous)" if r.vacuous else ""
        where = f" {r.instance}" if r.instance else ""
        print(
            f"{verdict} {r.operation}{where}: lhs={r.lhs!r} rhs={r.rhs!r} "
            f"tol={r.tolerance!r}{vac}"
        )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    h = make_family(args.family, args.args)
    _emit(format_hypergraph(h), args.out)
    return 0


def _cmd_qsmall(args: argparse.Namespace) -> int:
    if args.cert is not None and args.q is None:
        raise FormatError("qsmall --cert needs --q")
    h = read_hypergraph(args.path)
    if args.q is None:
        try:
            q = max_small_q(h, **_given(tol=args.tol))
        except TrivialHypergraphError:
            print("trivial: an empty edge defeats every cover; q(H) = 0")
            return 0
        print(f"max_small_q = {q!r}")
        return 0
    small, cover = is_q_small(h, args.q)
    print(f"q = {args.q!r}: {'q-small' if small else 'not q-small'}")
    print(f"min cover weight = {cover.weight!r} over {len(cover.edges)} member(s)")
    if args.cert is not None:
        write_cover(cover, args.cert)
        print(f"certificate written to {args.cert}")
    return 0


def _cmd_spread(args: argparse.Namespace) -> int:
    sw = spread_of(read_hypergraph(args.path))
    print(f"kappa = {sw.kappa!r}")
    print(
        f"witness = {sorted(sw.witness.indices())} "
        f"(contained in {sw.count} of {sw.edge_total} edges)"
    )
    return 0


def _cmd_pc(args: argparse.Namespace, seed: int, trials: int | None) -> int:
    """seed and trials stand in for --seed and --trials when they are unset;
    only the Monte Carlo route reads them."""
    if not args.mc and (args.trials is not None or args.seed is not None):
        raise FormatError("pc --trials and --seed need --mc")
    h = read_hypergraph(args.path)
    if args.mc:
        trials = trials if args.trials is None else args.trials
        est = mc_critical_probability(
            h,
            Rng(seed if args.seed is None else args.seed),
            **_given(trials=trials, tol=args.tol),
        )
        print(f"p_c ~ {est.value!r} in [{est.ci_low!r}, {est.ci_high!r}] "
              f"({est.trials} samples)")
        return 0
    print(f"p_c = {critical_probability(h, **_given(tol=args.tol))!r}")
    return 0


def _run_process(args: argparse.Namespace, kind: str) -> int:
    h = read_hypergraph(args.path)
    rng = Rng(args.seed)
    if kind == "halving":
        tr = run_halving(h, args.q, rng, **_given(ell_factor=args.L))
    elif kind == "retry":
        tr = run_retry(
            h, args.q, args.eps, rng,
            **_given(ell_factor=args.L, failure_mode=args.failure_mode),
        )
    else:
        tr = run_restart(h, args.q, args.eps, rng)
    if args.json:
        _emit(trace_to_json(tr), args.out)
    elif args.csv:
        _emit(trace_rounds_to_csv(tr), args.out)
    else:
        _emit(
            f"variant={tr.variant} found={tr.found} rounds={len(tr.rounds)} "
            f"successes={tr.successes} |W|={len(tr.total_w)} "
            f"u_weight={tr.u_weight!r} undercovers={tr.u_undercovers}\n",
            args.out,
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "constants":
        return _print_reports([constant_check()])
    h = read_hypergraph(args.path)
    name = os.path.basename(args.path)
    if args.mode == "highprob":
        reports = [verify_highprob_bound(
            h, args.eps, Rng(args.seed), instance=name,
            **_given(q=args.q, trials=args.trials),
        )]
    elif args.mode == "fragweight":
        reports = verify_fragment_weight(
            h, args.q, Rng(args.seed), instance=name,
            **_given(trials=args.trials, ell_factor=args.L),
        )
    else:
        check = {"threshold": verify_threshold_bound, "firstmoment": verify_first_moment,
                 "spreadsmall": verify_spread_not_small}[args.mode]
        reports = [check(h, instance=name)]
    return _print_reports(reports)


def _cmd_check_cert(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.path)
    cover = read_cover(args.cert)
    ok, reasons = validate_cover(h, cover)
    if ok:
        print("PASS certificate valid")
        return 0
    print("FAIL certificate rejected")
    for reason in reasons:
        print(f"  - {reason}")
    return 1


def _cmd_suite(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = [int(x) for x in args.only.split(",") if x.strip()]
    res = run_suite(args.seed, workers=args.workers, out_dir=args.out, only=only)
    sys.stdout.write(res.summary_text)
    return 0 if res.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    seed_default = _env_int("THRESHLAB_SEED", DEFAULT_SEED)
    trials_default = _env_int("THRESHLAB_TRIALS", None)
    workers_default = _env_int("THRESHLAB_WORKERS", 1)

    top = argparse.ArgumentParser(
        prog="threshlab",
        description="hypergraph smallness, spread, thresholds, fragmentation",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named family")
    p.add_argument("family")
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("qsmall", help="smallness certificate or largest small q")
    p.add_argument("path")
    q_or_tol = p.add_mutually_exclusive_group()
    q_or_tol.add_argument("--q", type=float)
    q_or_tol.add_argument("--tol", type=float)
    p.add_argument("--cert", help="write the cover as a certificate (needs --q)")
    p.set_defaults(fn=_cmd_qsmall)

    p = sub.add_parser("spread", help="exact spread with witness")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_spread)

    p = sub.add_parser("pc", help="critical probability")
    p.add_argument("path")
    p.add_argument("--mc", action="store_true")
    # no parser defaults: an explicit --trials or --seed without --mc is refused
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=lambda a: _cmd_pc(a, seed_default, trials_default))

    for kind in ("halving", "retry", "restart"):
        p = sub.add_parser(f"run-{kind}", help=f"one {kind} trace")
        p.add_argument("path")
        p.add_argument("--q", type=float, required=True)
        if kind != "halving":
            p.add_argument("--eps", type=float, required=True)
        p.add_argument("--seed", type=int, default=seed_default)
        if kind != "restart":  # run_restart's rate is fixed at 8 q log2(2 ell)
            p.add_argument("--L", type=float)
        if kind == "retry":
            p.add_argument("--failure-mode", choices=("fragment", "setminus"))
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")
        p.add_argument("--out")
        p.set_defaults(fn=lambda a, k=kind: _run_process(a, k))

    p = sub.add_parser("verify", help="run one verification check")
    p.set_defaults(fn=_cmd_verify)
    modes = p.add_subparsers(dest="mode", required=True)
    modes.add_parser("constants")
    for mode in ("threshold", "firstmoment", "spreadsmall", "highprob", "fragweight"):
        modes.add_parser(mode).add_argument("path")
    for mode, q_default in (("highprob", None), ("fragweight", Q_FRAG)):
        m = modes.choices[mode]
        m.add_argument("--q", type=float, default=q_default)
        m.add_argument("--trials", type=int, default=trials_default)
        m.add_argument("--seed", type=int, default=seed_default)
    modes.choices["highprob"].add_argument("--eps", type=float, default=0.25)
    modes.choices["fragweight"].add_argument("--L", type=float)

    p = sub.add_parser("check-cert", help="validate a stored certificate")
    p.add_argument("path")
    p.add_argument("cert")
    p.set_defaults(fn=_cmd_check_cert)

    p = sub.add_parser("suite", help="full deterministic acceptance suite")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--workers", type=int, default=workers_default)
    p.add_argument("--out")
    p.add_argument("--only", help="comma separated criteria numbers")
    p.set_defaults(fn=_cmd_suite)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except TrivialHypergraphError as exc:
        print(f"trivial hypergraph: {exc}", file=sys.stderr)
        return 2
    except (ThreshlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
