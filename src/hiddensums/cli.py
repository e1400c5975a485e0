"""Command-line entry point.

Subcommands: analyze, hidden-verify, hidden-search, encrypt, decrypt,
attack, reproduce.  Reports are plain text by default; --json (or
HIDDENSUMS_FORMAT=json) switches to machine-readable output.  Exit codes:
0 success, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from . import attack as attack_mod
from . import cipher, hidden_sum, reproduce, vbf
from .gf2 import FieldSpec, vec_to_str


class InputError(Exception):
    pass


def _want_json(args) -> bool:
    if args.json:
        return True
    return os.environ.get("HIDDENSUMS_FORMAT", "").lower() == "json"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if _want_json(args):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_modulus(value) -> int:
    """Moduli in configs are binary literal strings like '1011'; plain ints
    are accepted too, booleans are not."""
    if isinstance(value, bool):
        raise ValueError(f"field 'modulus' has the wrong type: {value!r} is not a modulus")
    if isinstance(value, int):
        return value
    return int(str(value).removeprefix("0b"), 2)


def _load_function(args) -> tuple[str, vbf.VBF]:
    if args.builtin_brick:
        return "builtin brick", cipher.toy_brick()
    if args.source is None:
        raise InputError("provide an s-box file or --builtin-brick")
    try:
        text = open(args.source).read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.source}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            cfg = json.loads(text)
            m = cipher.config_int(cfg["field"]["m"], "m")
            fs = FieldSpec(m, _parse_modulus(cfg["field"]["modulus"]))
            if cfg["kind"] == "power":
                d = cipher.config_int(cfg["exponent"], "exponent")
                return f"x^{d}", vbf.VBF.from_power(d, fs)
            if cfg["kind"] == "univariate":
                if not isinstance(cfg["coeffs"], list):
                    raise InputError("field 'coeffs' must be a list of integers")
                coeffs = [cipher.config_int(c, "coeffs") for c in cfg["coeffs"]]
                return "univariate polynomial", vbf.VBF.from_univariate(coeffs, fs)
            raise InputError(f"unknown kind {cfg['kind']!r}")
        # json.loads raises RecursionError on nesting deeper than the stack allows
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"bad function config: {exc}") from exc
    try:
        return args.source, vbf.load_sbox(text)
    except ValueError as exc:
        raise InputError(f"bad s-box file: {exc}") from exc


def cmd_analyze(args) -> int:
    label, f = _load_function(args)
    spectrum = vbf.diff_uniformity(f)
    report: dict = {
        "function": label,
        "m": f.m,
        "n": f.n,
        "permutation": f.is_permutation,
        "delta": spectrum.delta,
        "witnesses": {"delta": list(spectrum.witness)},
    }
    square = f.m == f.n
    report["apn"] = vbf.is_apn(f) if square else None
    report["weakly_apn"] = vbf.is_weakly_apn(f) if square else None
    if square:
        free = vbf.is_coset_free(f)
        report["coset_free_derivatives"] = free.value
        report["witnesses"]["coset_direction"] = free.witness
        if f.is_permutation:
            report["anti_crooked"] = free.value
            report["crooked"] = vbf.is_crooked(f)
        else:
            # the anti-crooked / crooked labels are reserved for permutations
            report["anti_crooked"] = None
            report["crooked"] = None
        report["n_hat"] = vbf.n_hat(f)
    lines = [f"function       : {label}  ({f.m} -> {f.n} bits)"]
    lines.append(f"permutation    : {report['permutation']}")
    lines.append(
        f"delta          : {spectrum.delta}  (witness a={spectrum.witness[0]}, b={spectrum.witness[1]})"
    )
    if square:
        lines.append(f"APN            : {report['apn']}")
        lines.append(f"weakly APN     : {report['weakly_apn']}")
        lines.append(f"crooked        : {report['crooked']}")
        lines.append(f"anti-crooked   : {report['anti_crooked']}")
        if report["witnesses"].get("coset_direction") is not None:
            lines.append(f"coset direction: {report['witnesses']['coset_direction']}")
        lines.append(f"n-hat          : {report['n_hat']}")
        if not f.is_permutation:
            lines.append("note           : not a permutation; crookedness labels withheld")
    _emit(args, report, lines)
    return 0


def cmd_hidden_verify(args) -> int:
    if not (args.builtin or args.source):
        raise InputError("provide a group spec file or --builtin")
    try:
        text = cipher.TOY_GROUP_SPEC if args.builtin else open(args.source).read()
        report = hidden_sum.hidden_sum_report(hidden_sum.parse_group_spec(text))
    except OSError as exc:
        raise InputError(f"cannot read {args.source}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad group spec: {exc}") from exc
    lines = [f"{key:18s}: {value}" for key, value in report.items()]
    _emit(args, report, lines)
    checks = [v for v in report.values() if isinstance(v, bool)]
    return 0 if all(checks) else 1


def cmd_hidden_search(args) -> int:
    spec = (
        cipher.inverse_brick_spec()
        if args.bricks == "inversion"
        else cipher.builtin_toy_spec()
    )
    found = hidden_sum.find_hidden_sums([spec.core_table()], [b.m for b in spec.bricks])
    specs = [hidden_sum.dump_group_spec(s.generators()).strip().splitlines() for s in found]
    payload = {
        "bricks": args.bricks,
        "count": len(found),
        "sums": specs,
        "contains_bundled": any(s == cipher.toy_state_sum() for s in found),
    }
    lines = [f"bricks         : {args.bricks}", f"hidden sums    : {len(found)}"]
    for i, spec_lines in enumerate(specs):
        lines.append(f"-- sum {i} generators --")
        lines += ["  " + ln for ln in spec_lines]
    if found:
        lines.append(f"contains bundled sum: {payload['contains_bundled']}")
    _emit(args, payload, lines)
    return 0


def _parse_block(text: str, width: int) -> int:
    """ASCII hex digits only (vbf.read_digits): no sign, prefix, underscore or blank."""
    try:
        v = vbf.read_digits(text, 16)
    except ValueError:
        v = None
    if v is None or text.startswith("-"):
        raise InputError(f"block {text!r} must be a non-negative hex number (digits 0-9, a-f)")
    if v >> width:
        raise InputError(f"block {text!r} exceeds {width} bits")
    return v


def _schedule(args, width: int):
    if args.schedule == "permute":
        return cipher.permuted_key_schedule(width, args.seed)
    return None


# Defaults of the builtin cipher's flags on encrypt and decrypt.  The parser
# leaves them None, so that a flag given with --cipher, whose config sets
# its own value, can be refused.
_BUILTIN_DEFAULTS = {"rounds": 20, "schedule": "rotate", "seed": 0}


def _cipher_spec(args) -> cipher.CipherSpec:
    if getattr(args, "cipher", None):
        import os.path

        for flag in _BUILTIN_DEFAULTS:
            if getattr(args, flag) is not None:
                raise InputError(
                    f"--{flag} cannot be combined with --cipher; the config sets it"
                )
        try:
            config = json.loads(open(args.cipher).read())
            return cipher.load_cipher_config(config, os.path.dirname(args.cipher) or ".")
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"bad cipher config {args.cipher}: {exc}") from exc
    for flag, default in _BUILTIN_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    try:
        return cipher.builtin_toy_spec(args.rounds, _schedule(args, 2 * cipher.toy_brick().m))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _hex_block(spec: cipher.CipherSpec, v: int) -> str:
    return format(v, f"0{max(2, (spec.d + 3) // 4)}x")


def cmd_encrypt(args) -> int:
    spec = _cipher_spec(args)
    y = spec.encrypt(_parse_block(args.key, spec.d), _parse_block(args.pt, spec.d))
    _emit(args, {"ct": _hex_block(spec, y)}, [_hex_block(spec, y)])
    return 0


def cmd_decrypt(args) -> int:
    spec = _cipher_spec(args)
    x = spec.decrypt(_parse_block(args.key, spec.d), _parse_block(args.ct, spec.d))
    _emit(args, {"pt": _hex_block(spec, x)}, [_hex_block(spec, x)])
    return 0


def cmd_attack(args) -> int:
    import random

    spec = _cipher_spec(args)
    if args.key == "random":
        key = random.Random(args.seed).randrange(1 << spec.d)
    else:
        key = _parse_block(args.key, spec.d)
    state = cipher.toy_state_sum()
    basis = cipher.toy_coordinate_basis()
    enc = attack_mod.encryption_oracle(spec, key)
    if args.mode == "cpcc":
        dec = attack_mod.decryption_oracle(spec, key)
        repr_, transcript = attack_mod.reconstruct_cpcc(enc, dec, state, basis, seed=args.seed)
    else:
        repr_, transcript = attack_mod.reconstruct_cp(enc, state, basis, seed=args.seed)
    report = attack_mod.verify_global_deduction(repr_, enc, transcript)
    payload = {
        "mode": args.mode,
        "rounds": args.rounds,
        "key": _hex_block(spec, key),
        "M": [vec_to_str(r, spec.d) for r in repr_.matrix.rows],
        "t": vec_to_str(repr_.t_coords, spec.d),
        "enc_queries": report.enc_queries,
        "dec_queries": report.dec_queries,
        "verified_blocks": report.verified_blocks,
        "mismatches": report.mismatches,
        "verdict": "PASS" if report.ok else "FAIL",
    }
    lines = [
        f"mode           : {args.mode}   rounds: {args.rounds}   key: {payload['key']}",
        "M rows         : " + " ".join(payload["M"]),
        f"t              : {payload['t']}",
        f"attack queries : {report.enc_queries} encryptions, {report.dec_queries} decryptions",
        f"verification   : {report.verified_blocks} blocks, {report.mismatches} mismatches",
        f"verdict        : {payload['verdict']}",
    ]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_reproduce(args) -> int:
    criteria = None
    if args.criteria:
        try:
            criteria = [int(tok) for tok in args.criteria.split(",")]
        except ValueError as exc:
            raise InputError(f"bad criteria list {args.criteria!r}") from exc
    try:
        if _want_json(args):
            rows = [result._asdict() for result in reproduce.results(criteria)]
            ok = all(row["verdict"] == "PASS" for row in rows)
            _emit(args, {"passed": ok, "criteria": rows}, [])
        else:
            ok = reproduce.run(criteria)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddensums",
        description="hidden-sum trapdoor workbench for the bundled 6-bit SPN",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="differential property report for an S-box")
    p.add_argument("source", nargs="?", help="s-box table file or JSON function config")
    p.add_argument("--builtin-brick", action="store_true", help="analyze the bundled brick")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hidden-verify", help="build and verify a hidden sum from generators")
    p.add_argument("source", nargs="?", help="group spec file")
    p.add_argument("--builtin", action="store_true", help="verify the bundled generators")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hidden_verify)

    p = sub.add_parser("hidden-search", help="search the builtin cipher for hidden sums")
    p.add_argument("--bricks", choices=["builtin", "inversion"], default="builtin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hidden_search)

    for name, fn in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} one block with the builtin cipher")
        p.add_argument("--key", required=True, help="hex block")
        p.add_argument("--pt" if name == "encrypt" else "--ct", required=True, help="hex block")
        p.add_argument("--rounds", type=int, help="default 20; not with --cipher")
        p.add_argument(
            "--schedule", choices=["rotate", "permute"], help="default rotate; not with --cipher"
        )
        p.add_argument("--seed", type=int, help="default 0; not with --cipher")
        p.add_argument("--cipher", help="JSON cipher config document")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("attack", help="reconstruct the builtin cipher from 7 queries")
    p.add_argument("--mode", choices=["cp", "cpcc"], default="cp")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--key", default="random", help="hex block or 'random'")
    p.add_argument("--schedule", choices=["rotate", "permute"], default="rotate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("reproduce", help="run the verification battery")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,13")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
