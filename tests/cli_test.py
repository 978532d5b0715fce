#!/usr/bin/env python3
"""Script tests for the `tbstc` command-line driver.

Usage: cli_test.py CASE TBSTC_BINARY KERNELS_HPP

Each CASE is one ctest entry (see tests/CMakeLists.txt). The cases pin
the driver's user-facing contract: every subcommand is reachable from
`tbstc help`, `tbstc help <cmd>` equals `tbstc <cmd> --help`, usage
errors exit 2, `serve --help` documents every limit flag, `cpuinfo`
reports every primitive of the kernel table, a layer that does not
tile fails alike on every accelerator, and `formats` refuses a layer
wider than SDC's 16-bit column indices hold.
"""

import re
import subprocess
import sys

SUBCOMMANDS = ["run", "compare", "formats", "fsck", "area", "cpuinfo",
               "serve", "loadgen", "fuzz"]

ACCELERATORS = ["tc", "stc", "vegeta", "highlight", "rmstc", "sgcn",
                "tbstc", "fan"]

LIMIT_FLAGS = ["--queue", "--retry-after-ms", "--idle-timeout-ms",
               "--read-timeout-ms", "--write-timeout-ms", "--max-conns",
               "--rate", "--burst", "--max-inflight"]


def tbstc(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=60)


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def help_names_every_subcommand(binary, _):
    r = tbstc(binary, "help")
    check(r.returncode == 0, f"tbstc help exited {r.returncode}")
    for cmd in SUBCOMMANDS:
        check(re.search(rf"^\s+{cmd}\b", r.stdout, re.M),
              f"tbstc help does not name '{cmd}':\n{r.stdout}")


def help_topic_matches_dash_help(binary, _):
    for cmd in SUBCOMMANDS:
        topic = tbstc(binary, "help", cmd)
        flag = tbstc(binary, cmd, "--help")
        check(topic.returncode == 0 and flag.returncode == 0,
              f"{cmd}: help exits {topic.returncode}/{flag.returncode}")
        check(topic.stdout.startswith(f"usage: tbstc {cmd}"),
              f"{cmd}: unexpected help text:\n{topic.stdout}")
        check(topic.stdout == flag.stdout,
              f"{cmd}: 'tbstc help {cmd}' differs from '--help':\n"
              f"{topic.stdout}\n---\n{flag.stdout}")


def usage_errors_exit_two(binary, _):
    cases = [
        ["no-such-command"],
        ["run", "--accel", "tbstc", "--no-such-flag"],
        ["area", "--bogus"],
        ["run", "--accel", "tbstc", "--layer", "64x64x8",
         "--sparsity", "half"],
        ["serve", "--queue", "-1"],
        ["loadgen", "--port", "12x"],
    ]
    for args in cases:
        r = tbstc(binary, *args)
        check(r.returncode == 2,
              f"tbstc {' '.join(args)} exited {r.returncode}, want 2:\n"
              f"{r.stderr}")


def serve_help_lists_every_limit_flag(binary, _):
    r = tbstc(binary, "serve", "--help")
    check(r.returncode == 0, f"serve --help exited {r.returncode}")
    for flag in LIMIT_FLAGS:
        check(re.search(rf"^\s+{re.escape(flag)}\s", r.stdout, re.M),
              f"serve --help does not list {flag}:\n{r.stdout}")


def cpuinfo_lists_every_kernel_primitive(binary, kernels_hpp):
    with open(kernels_hpp) as f:
        src = f.read()
    body = re.search(r"struct KernelTable\s*\{(.*?)\n\};", src, re.S)
    check(body, f"no struct KernelTable in {kernels_hpp}")
    prims = re.findall(r"\(\*(\w+)\)\s*\(", body.group(1))
    check(prims, "KernelTable declares no primitives")
    r = tbstc(binary, "cpuinfo")
    check(r.returncode == 0, f"cpuinfo exited {r.returncode}")
    listed = re.findall(r"^\s+(\w+)\s+\w+\s*$", r.stdout, re.M)
    missing = [p for p in prims if p not in listed]
    check(not missing,
          f"cpuinfo omits primitives {missing}:\n{r.stdout}")


def untileable_layer_fails_alike(binary, _):
    want = ("tbstc: weight matrix 100x100 does not tile by m = 8; "
            "pad the workload first\n")
    for accel in ACCELERATORS:
        r = tbstc(binary, "run", "--accel", accel, "--layer", "100x100x1")
        check(r.returncode == 1,
              f"{accel}: exited {r.returncode}, want 1:\n{r.stderr}")
        check(r.stderr == want,
              f"{accel}: stderr {r.stderr!r}, want {want!r}")


def formats_rejects_columns_past_16_bits(binary, _):
    # SDC's 16-bit column indices hold 65535 columns (0xffff pads), the
    # tightest of the formats `tbstc formats` prints.
    ok = tbstc(binary, "formats", "--layer", "8x65528x1")
    check(ok.returncode == 0,
          f"8x65528x1 exited {ok.returncode}, want 0:\n{ok.stderr}")
    r = tbstc(binary, "formats", "--layer", "8x65536x1")
    check(r.returncode == 2,
          f"8x65536x1 exited {r.returncode}, want 2:\n{r.stderr}")
    check("65535-column limit" in r.stderr,
          f"8x65536x1 stderr names no column limit:\n{r.stderr}")


CASES = {
    "HelpNamesEverySubcommand": help_names_every_subcommand,
    "HelpTopicMatchesDashHelp": help_topic_matches_dash_help,
    "UsageErrorsExitTwo": usage_errors_exit_two,
    "ServeHelpListsEveryLimitFlag": serve_help_lists_every_limit_flag,
    "CpuinfoListsEveryKernelPrimitive":
        cpuinfo_lists_every_kernel_primitive,
    "UntileableLayerFailsAlike": untileable_layer_fails_alike,
    "FormatsRejectsColumnsPast16Bits":
        formats_rejects_columns_past_16_bits,
}


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in CASES:
        print(__doc__, file=sys.stderr)
        print("cases:", " ".join(CASES), file=sys.stderr)
        return 2
    try:
        CASES[sys.argv[1]](sys.argv[2], sys.argv[3])
    except AssertionError as e:
        print(f"FAIL {sys.argv[1]}: {e}", file=sys.stderr)
        return 1
    print(f"ok {sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
