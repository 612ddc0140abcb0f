"""Scripted stand-in for an external norm-equation solver.

Speaks the line-delimited JSON protocol on stdin/stdout.  The first CLI
argument picks a behaviour:

  scripted        answer from a fixed (degree, target) table, else unknown
  canned-solvable answer solvable (2, 1) for x^2+1 target 5, else unknown
  bogus           answer solvable with a wrong witness for everything
  garbage         emit a non-JSON line
  wrong-id        answer with a mismatched request id
  id J            answer unknown with the id given as the JSON text J
  chatty          answer unknown twice per request, in one write
  die             exit immediately without answering
  answer O C G    answer outcome O, certified C and grh G (true/false) to
                  every request

The scripted table replays two published degree>2 decisions: degree-8
unsolvability for both signs of 5507 (unconditional) and degree-46
unsolvability for +8837 (GRH only).
"""

import json
import sys

SCRIPT = {
    (8, 5507): ("unsolvable", True, False),
    (8, -5507): ("unsolvable", True, False),
    (46, 8837): ("unsolvable", True, True),
    (28, 59): ("unsolvable", True, True),
    (4, -59): ("unsolvable", True, True),
}


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "scripted"
    if mode == "die":
        return
    for line in sys.stdin:
        req = json.loads(line)
        rid = req["id"]
        degree = len(req["minpoly"]) - 1
        target = req["target"]
        if mode == "garbage":
            sys.stdout.write("this is not json\n")
            sys.stdout.flush()
            continue
        if mode == "wrong-id":
            resp = {
                "id": rid + 1000,
                "outcome": "unknown",
                "certified": False,
                "grh": False,
            }
        elif mode == "id":
            resp = {"id": json.loads(sys.argv[2]), "outcome": "unknown", "certified": False, "grh": False}
        elif mode == "bogus":
            resp = {
                "id": rid,
                "outcome": "solvable",
                "witness": [1] + [0] * (degree - 1),
                "certified": True,
                "grh": False,
            }
        elif mode == "canned-solvable" and req["minpoly"] == [1, 0, 1] and target == 5:
            resp = {
                "id": rid,
                "outcome": "solvable",
                "witness": [2, 1],
                "certified": True,
                "grh": False,
            }
        elif mode == "answer":
            outcome, certified, grh = sys.argv[2], sys.argv[3] == "true", sys.argv[4] == "true"
            resp = {"id": rid, "outcome": outcome, "certified": certified, "grh": grh}
        elif mode == "scripted" and (degree, target) in SCRIPT:
            outcome, certified, grh = SCRIPT[(degree, target)]
            resp = {"id": rid, "outcome": outcome, "certified": certified, "grh": grh}
        else:
            resp = {"id": rid, "outcome": "unknown", "certified": False, "grh": False}
        sys.stdout.write((json.dumps(resp) + "\n") * (2 if mode == "chatty" else 1))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
