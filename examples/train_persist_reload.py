"""Train once, persist the expansion, retrain from it in a fresh process.

The Sec 6.2 predicate expansion is the one persisted offline state: a
checksummed artifact written by ``ExpandedStore.save``.  Phase 1 trains and
saves it; phase 2 is a real child interpreter that rebuilds the suite from
its seed, loads the artifact instead of re-running the expansion scan,
retrains the template model (retraining is the restart) and answers the
same question — the parent checks that both answers agree.

Run:  python examples/train_persist_reload.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.system import KBQA
from repro.suite import build_suite

SEED = 7

PHASE_2 = """
import sys
from repro.core.system import KBQA
from repro.kb.expansion import ExpandedStore
from repro.suite import build_suite

path, question, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
suite = build_suite("small", seed=seed)
expanded = ExpandedStore.load(path)  # checks size, checksum and structure
system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, expanded=expanded)
print(system.answer(question).value)
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="kbqa-"))
    print(f"workspace: {workdir}\n")

    # ---- phase 1: train and persist the expansion ----------------------
    suite = build_suite("small", seed=SEED)
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    city = next(e for e in suite.world.of_type("city") if e.get_fact("population"))
    question = f"how many people live in {city.name}?"
    answer = system.answer(question).value
    print(f"phase 1 answer: {answer}")

    path = workdir / "expansion.kbqa"
    expanded = system.learn_result.expanded
    expanded.save(path)
    print(f"persisted {len(expanded)} expanded triples "
          f"({path.stat().st_size} bytes) to {path.name}\n")

    # ---- phase 2: a fresh interpreter loads it and retrains ------------
    print("phase 2: child interpreter, expansion loaded from disk...")
    child = subprocess.run(
        [sys.executable, "-c", PHASE_2, str(path), question, str(SEED)],
        capture_output=True, text=True, check=True,
    )
    reloaded = child.stdout.strip()
    print(f"phase 2 answer: {reloaded}")
    assert reloaded == answer, "the restarted process must answer as phase 1 did"
    gold = suite.world.gold_values(city.node, "population")
    print(f"ground truth:   {', '.join(sorted(gold))}")
    assert answer in gold
    print("\nrestart verified.")


if __name__ == "__main__":
    main()
