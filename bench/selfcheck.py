"""Show that the benchmark's answer checker has teeth.

    python3 bench/selfcheck.py

For every workload, a tiny run with one deliberately wrong expected verdict
must report failures and every end-to-end metric of BENCHMARK.json with its
unit, a tiny run with the true verdicts must report none, and a tiny traced
run must report every per-layer metric with its unit.  Exits 1 on any miss.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cli-check", "decide", "limits")


def run(workload: str, *flags: str) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1", "--tiny", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def units_printed(result: dict, expected: list[dict]) -> bool:
    return all(result["metrics"].get(m["name"], {}).get("unit") == m["unit"] for m in expected) \
        and len(result["metrics"]) == len(expected)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = []
    for workload in WORKLOADS:
        code, lines = run(workload, "--trace", "0", "--wrong-answer")
        result = json.loads(lines[-1])
        checks.append((f"{workload}: a wrong expected verdict gives failed_frac > 0",
                       code == 1 and not result["correct"] and result["failed"] > 0))
        checks.append((f"{workload}: every end-to-end metric printed with its unit",
                       units_printed(result, spec["end_to_end"])
                       and any(line.startswith("failed_frac ") and " ratio " in line for line in lines)))
        code, lines = run(workload, "--trace", "0")
        result = json.loads(lines[-1])
        checks.append((f"{workload}: the true verdicts give failed_frac = 0",
                       code == 0 and result["correct"] and result["failed"] == 0))
        code, lines = run(workload, "--trace", "1")
        result = json.loads(lines[-1])
        checks.append((f"{workload}: every per-layer metric printed with its unit",
                       code == 0 and units_printed(result, spec["per_layer"])))
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
