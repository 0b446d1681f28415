import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_pairs_a_tree_with_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src,
         "--workload", "pointwise_deep", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    passes = int(re.search(r"seed=1: (\d+) paired passes", out).group(1))
    assert passes >= 1
    assert re.search(r"pointwise hopf/6 +\d+\.\d+ +\d+\.\d+ +\d+\.\d+", out)
    won = re.search(r"median (\d+\.\d+), quartiles \[(\d+\.\d+), (\d+\.\d+)\]; "
                    r"change won (\d+) of (\d+)", out)
    assert won and int(won.group(5)) == passes and int(won.group(4)) <= passes
