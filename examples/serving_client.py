"""Serving tour: start the HTTP answer service in-process, talk to it.

Shows the whole serving story: a trained system behind the micro-batching
async front (`repro.serve`), queried over plain HTTP — single answers,
client batches, a live KB edit through /facts, and the serving counters.

Run:  python examples/serving_client.py
(Against a standalone server, start `kbqa serve --scale small --port 8080`
and point the same requests at http://127.0.0.1:8080.)
"""

import json
import threading
import urllib.request

from repro.core.system import KBQA
from repro.kb.triple import make_literal
from repro.serve import BackgroundServer, ServeConfig
from repro.suite import build_suite


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def main() -> None:
    print("training KBQA on the small synthetic suite...")
    suite = build_suite("small", seed=7)
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    city = next(e for e in suite.world.of_type("city") if e.get_fact("population"))
    question = f"what is the population of {city.name}?"

    config = ServeConfig(max_batch=8)
    with BackgroundServer(system, config) as bg:
        print(f"\nserver up on {bg.url} (ephemeral port, private event loop)")

        print(f"\nPOST /answer  {question!r}")
        answer = post(bg.url + "/answer", {"question": question})
        print(f"  -> {answer['value']}  (answered={answer['answered']}, "
              f"predicate={answer['predicate']})")

        print("\nPOST /batch with duplicates (the answer cache serves them)")
        batch = post(bg.url + "/batch", {"questions": [question] * 4})
        values = {r["value"] for r in batch["results"]}
        print(f"  -> {len(batch['results'])} results, {len(values)} distinct value")

        print("\n12 concurrent clients asking the same question...")
        def client():
            post(bg.url + "/answer", {"question": question})
        workers = [threading.Thread(target=client) for _ in range(12)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stats = get(bg.url + "/stats")
        serve = stats["serve"]
        print(f"  serve counters: requests={serve['requests']} "
              f"inline_hits={serve['inline_hits']} "
              f"wire_hits={stats['http']['wire_hits']} "
              f"batches={serve['batches']} evaluated={serve['evaluated']}")

        print("\nPOST /facts: live-edit the KB between two evaluation batches")
        node = answer["entity"]
        fact = {"subject": node, "predicate": "population",
                "object": make_literal("424242")}
        print(f"  add {fact['subject']} population 424242 -> "
              f"changed={post(bg.url + '/facts', {'op': 'add', **fact})['changed']}")
        edited = post(bg.url + "/answer", {"question": question})
        print(f"  same question now: values={edited['values']}")
        post(bg.url + "/facts", {"op": "delete", **fact})
        restored = post(bg.url + "/answer", {"question": question})
        print(f"  after delete: values={restored['values']}")

        print(f"\nGET /healthz -> {get(bg.url + '/healthz')}")
    print("\nserver stopped, event loop joined — clean shutdown.")


if __name__ == "__main__":
    main()
