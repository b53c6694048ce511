"""Output checks, one per command kind.

Each checker takes the command, its exit code, its stdout and the text of
its --out CSV (or None) and returns ``(problems, notes)``: a problem fails
the operation, a note is reported but does not.

Checks recompute what they can from the generated scenario with code of
their own (winners, qualities, utilities, rewards, schedule identities) and
use the library only where the issue asks for a second, independent route:
``analysis.is_approx_pne`` for equilibrium membership, ``repeated.run`` to
replay deviation plans and ``repeated.delayed_update`` for weight steps.
Properties the method has only under a hypothesis are asserted only where
the hypothesis holds.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random

from avgov import analysis, core, params, repeated

REL = 1e-9          # relative tolerance for values printed at 12 digits
TIE_REL = 1e-9      # masses within TIE_REL * total weight are a tie
UTIL_TOL = 1e-9     # "strictly better" margin, as in the library
UNREPORTED_SAMPLES = 24
PLAN_SAMPLES = 32
# Weights are held to within 0.05 of expertise only after this many
# rounds: after 500 rounds the correct rate alone still strays by about
# 0.016 (one standard deviation).
CONVERGED_HORIZON = 10000


def close(x, y, rel=REL):
    x, y = _num(x), _num(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _num(v):
    return float(v) if not isinstance(v, str) else float(v.replace("inf", "Infinity"))


# ---------------------------------------------------------------------------
# Independent model: schedule, winners, utilities
# ---------------------------------------------------------------------------


def schedule_of(scn):
    """(a, a', s, T, epsilon) from the derivable schedule form."""
    sc = scn["schedule"]
    T, eps, ap = sc["T"], sc["epsilon"], sc["a_prime"]
    a = (1.0 + eps) * ap * (1.0 - T)
    s = a * (T * (eps + 1.0) - 1.0) / ((1.0 - T) * (eps + 1.0))
    return a, ap, s, T, eps


def weights_of(scn):
    return [e["weight"] for e in scn["experts"]]


def beliefs_of(scn):
    return [e["beliefs"] for e in scn["experts"]]


def externals_of(scn):
    return [e.get("external", [0.0] * len(e["beliefs"])) for e in scn["experts"]]


def delta_of(scn):
    a = schedule_of(scn)[0]
    return max([g / w / a for w, row in zip(weights_of(scn), externals_of(scn))
                for g in row if g > 0.0], default=0.0)


def parse_votes(text):
    return [[int(c) for c in row] for row in text.split("|")]


def votes_str(votes):
    return "|".join("".join(str(v) for v in row) for row in votes)


def honest_votes(scn):
    T = scn["schedule"]["T"]
    return [[1 if p >= T else 0 for p in row] for row in beliefs_of(scn)]


def tie_winner(weights, votes):
    """(winner by the documented rule, exact masses, the tied set): the
    largest approving weight, ties within TIE_REL of the total weight to
    the smallest index, 0 when nobody approves anything."""
    k = len(votes[0])
    masses = [math.fsum(w for w, row in zip(weights, votes) if row[j]) for j in range(k)]
    best = max(masses)
    if best <= 0.0:
        return 0, masses, {0}
    tol = TIE_REL * math.fsum(weights)
    tied = {j + 1 for j in range(k) if masses[j] >= best - tol}
    return min(tied), masses, tied


def own_utility(scn, votes, i):
    a, ap, s, _, _ = schedule_of(scn)
    j = tie_winner(weights_of(scn), votes)[0]
    if j == 0:
        return 0.0
    p = scn["experts"][i]["beliefs"][j - 1]
    g = externals_of(scn)[i][j - 1]
    ghat = g / scn["experts"][i]["weight"] if g > 0.0 else 0.0
    mech = p * a - (1.0 - p) * s if votes[i][j - 1] else (1.0 - p) * ap
    return p * ghat + mech


def own_is_strategic_pne(scn, votes):
    """No expert gains more than UTIL_TOL by any unilateral deviation."""
    k = len(votes[0])
    for i in range(len(votes)):
        base = own_utility(scn, votes, i)
        for vec in itertools.product((0, 1), repeat=k):
            alt = [list(vec) if m == i else row for m, row in enumerate(votes)]
            if own_utility(scn, alt, i) > base + UTIL_TOL:
                return False
    return True


def qualities(scn):
    T = scn["schedule"]["T"]
    k = len(scn["experts"][0]["beliefs"])
    return [math.fsum(e["weight"] for e in scn["experts"] if e["beliefs"][j] >= T)
            for j in range(k)]


def opt_of(quals):
    best = max(quals)
    tol = TIE_REL * max(1.0, best)
    return min(j + 1 for j, q in enumerate(quals) if q >= best - tol), best


# ---------------------------------------------------------------------------
# Library objects for the independent routes
# ---------------------------------------------------------------------------


def instance_of(scn):
    return core.Instance(weights=tuple(weights_of(scn)),
                         beliefs=tuple(tuple(r) for r in beliefs_of(scn)),
                         external=tuple(tuple(r) for r in externals_of(scn)))


def lib_schedule(scn):
    sc = scn["schedule"]
    return params.derive_schedule(sc["T"], sc["epsilon"], sc["a_prime"],
                                  delta=delta_of(scn))


def world_of(scn, horizon=None):
    w = scn["world"]
    return repeated.WorldConfig(
        expertise=tuple(w["expertise"]), good_prior=w["good_prior"],
        proposals_per_round=w["k"], zeta=w["zeta"], gamma=w["gamma"],
        horizon=horizon or w["horizon"], seed=w["seed"])


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def check_enumerate(cmd, out, csv_text):
    ctx, doc, problems = cmd.ctx, json.loads(out), []
    scn, mode, eps = ctx["scenario"], ctx["mode"], ctx["epsilon"]
    n, k = len(scn["experts"]), len(scn["experts"][0]["beliefs"])
    weights = weights_of(scn)
    quals = qualities(scn)
    opt = opt_of(quals)
    eqs = doc["equilibria"]
    if doc["mode"] != mode or not close(doc["epsilon"], eps):
        problems.append(f"query echoed as {doc['mode']}/{doc['epsilon']}")
    if doc["equilibrium_count"] != len(eqs):
        problems.append("equilibrium_count differs from the list")
    rows = _csv_rows(csv_text)
    if rows[0] != ["profile", "winner", "winner_quality"] or len(rows) != len(eqs) + 1 or any(
            r[0] != e["profile"] or int(r[1]) != e["winner"] or not close(r[2], e["winner_quality"])
            for r, e in zip(rows[1:], eqs)):
        problems.append("CSV rows differ from the reported equilibria")
    if doc["opt"]["proposal"] != opt[0] or not close(doc["opt"]["quality"], opt[1]):
        problems.append(f"opt {doc['opt']} != recomputed {opt}")

    instance, schedule = instance_of(scn), lib_schedule(scn)
    query = analysis.EquilibriumQuery(mode=mode, epsilon=eps)
    reported = []
    for e in eqs:
        votes = parse_votes(e["profile"])
        reported.append(sum(v << (i * k + j) for i, row in enumerate(votes)
                            for j, v in enumerate(row)))
        w = tie_winner(weights, votes)[0]
        if e["winner"] != w:
            problems.append(f"{e['profile']}: winner {e['winner']} != recomputed {w}")
        if not close(e["winner_quality"], quals[w - 1] if w else 0.0):
            problems.append(f"{e['profile']}: winner_quality differs")
        if not analysis.is_approx_pne(instance, schedule, core.VotingProfile(votes), query):
            problems.append(f"{e['profile']}: reported but fails is_approx_pne")
    if reported != sorted(set(reported)):
        problems.append("equilibria not in ascending profile order")

    found = [quals[e["winner"] - 1] if e["winner"] else 0.0 for e in eqs]
    ratio = (lambda q: opt[1] / q if q > 0.0 else math.inf)
    want = (None, None) if not found else (ratio(min(found)), ratio(max(found)))
    for key, value in zip(("poa", "pos"), want):
        got = doc[key]
        if (got is None) != (value is None) or (value is not None and not close(got, value)):
            problems.append(f"{key} {got} != recomputed {value}")

    rng = random.Random(ctx["sample_seed"])
    chosen, taken = set(reported), 0
    while taken < min(UNREPORTED_SAMPLES, (1 << (n * k)) - len(chosen)):
        idx = rng.randrange(1 << (n * k))
        if idx in chosen:
            continue
        chosen.add(idx)
        taken += 1
        votes = tuple(tuple((idx >> (i * k + j)) & 1 for j in range(k)) for i in range(n))
        if analysis.is_approx_pne(instance, schedule, core.VotingProfile(votes), query):
            problems.append(f"{votes_str(votes)}: passes is_approx_pne but not reported")

    # Honest voting is a (1+eps)-equilibrium for semi-strategic experts
    # without side payments, but only when it elects a proposal.
    if mode == "semi" and eps == scn["schedule"]["epsilon"] and not any(
            g for row in externals_of(scn) for g in row):
        honest = honest_votes(scn)
        if tie_winner(weights, honest)[0] != 0 and votes_str(honest) not in {
                e["profile"] for e in eqs}:
            problems.append("honest profile elects a proposal but is not listed")
    return problems, []


# ---------------------------------------------------------------------------
# repeat
# ---------------------------------------------------------------------------

REPEAT_HEADER = ["round", "expert", "votes", "winner", "revealed_quality",
                 "realized_reward", "subjective_reward", "weight", "weight_next"]


def check_repeat(cmd, out, csv_text):
    scn, doc = cmd.ctx["scenario"], json.loads(out)
    world = scn["world"]
    n, H, gamma, zeta = len(world["expertise"]), world["horizon"], world["gamma"], world["zeta"]
    a, ap, s, _, eps = schedule_of(scn)
    reader = csv.reader(io.StringIO(csv_text))
    problems, tie_breaks = [], 0
    if next(reader) != REPEAT_HEADER:
        return ["unexpected CSV header"], []
    correct, revealed = [0] * n, 0
    realized_sums = [[] for _ in range(n)]
    subjective_sums = [[] for _ in range(n)]
    prev_next = ["0.5"] * n
    rounds = 0
    rows = list(itertools.islice(reader, n))
    while rows:
        if len(problems) > 10:
            break
        t = rounds
        if [int(r[0]) for r in rows] != [t] * n or [int(r[1]) for r in rows] != list(range(n)):
            problems.append(f"round {t}: rows out of order")
            break
        votes = [[int(c) for c in r[2]] for r in rows]
        w_prog = int(rows[0][3])
        weights = [float(r[7]) for r in rows]
        if [r[7] for r in rows] != prev_next:
            problems.append(f"round {t}: weight differs from the previous weight_next")
        want, _, tied = tie_winner(weights, votes)
        if w_prog != want:
            # A tie broken away from the smallest index is the float-sum
            # fault of core.winner; it shows on some seeds only, so it is
            # reported, not failed (the fixed tie case in `queries` fails).
            if w_prog in tied:
                tie_breaks += 1
            else:
                problems.append(f"round {t}: winner {w_prog} != recomputed {want}")
        q_text = rows[0][4]
        if (q_text == "") != (w_prog == 0):
            problems.append(f"round {t}: revealed quality {q_text!r} for winner {w_prog}")
        if w_prog:
            revealed += 1
        for i, r in enumerate(rows):
            w = weights[i]
            realized = subjective = 0.0
            if w_prog:
                vote, q = votes[i][w_prog - 1], int(q_text)
                realized = w * ((a if q else -s) if vote else (0.0 if q else ap))
                # Honest play on 0/1 signals: the belief in the winner is the vote.
                subjective = w * (a if vote else ap)
                correct[i] += vote == q
            if not close(r[5], realized) or not close(r[6], subjective):
                problems.append(f"round {t} expert {i}: rewards {r[5]}, {r[6]} "
                                f"!= recomputed {realized}, {subjective}")
            realized_sums[i].append(float(r[5]) * gamma ** t)
            subjective_sums[i].append(float(r[6]) * gamma ** t)
            omega = correct[i] / revealed if revealed else 0.5
            nxt = float(r[8])
            if not close(nxt, repeated.delayed_update(w, omega, zeta)):
                problems.append(f"round {t} expert {i}: weight_next {nxt} != delayed_update")
            slack = REL * w
            if not ((1 - zeta) * w - slack <= nxt <= (1 + zeta) * w + slack
                    and min(w, omega) - slack <= nxt <= max(w, omega) + slack):
                problems.append(f"round {t} expert {i}: weight_next {nxt} outside its bracket")
        prev_next = [r[8] for r in rows]
        rounds += 1
        rows = list(itertools.islice(reader, n))

    if rounds != H or doc["horizon"] != H:
        problems.append(f"{rounds} rounds in the CSV, horizon {doc['horizon']}, want {H}")
    if doc["non_dummy_rounds"] != revealed or doc["correct"] != correct:
        problems.append("non_dummy_rounds or correct differ from the CSV")
    final = [float(x) for x in prev_next]
    if not all(close(x, y) for x, y in zip(doc["final_weights"], final)):
        problems.append("final_weights differ from the last weight_next")
    for key, sums in (("discounted_realized", realized_sums),
                      ("discounted_subjective", subjective_sums)):
        if not all(close(x, math.fsum(v)) for x, v in zip(doc[key], sums)):
            problems.append(f"{key} differs from the discounted CSV sum")
    cap = eps / ((1.0 + eps) * (1.0 + zeta) - (1.0 - zeta))
    if doc["gamma_warning"] != (gamma >= cap):
        problems.append("gamma_warning differs from gamma >= max_discount")
    for i, (x, e) in enumerate(zip(final, world["expertise"])):
        if H >= CONVERGED_HORIZON and abs(x - e) > 0.05:
            problems.append(f"expert {i}: final weight {x} more than 0.05 from expertise {e}")
    notes = [f"{tie_breaks} tied rounds elected a larger index ({cmd.label})"] if tie_breaks else []
    return problems, notes


# ---------------------------------------------------------------------------
# deviation-gap
# ---------------------------------------------------------------------------


def check_deviation(cmd, out, csv_text):
    ctx, doc, problems = cmd.ctx, json.loads(out), []
    scn, expert, H = ctx["scenario"], ctx["expert"], ctx["horizon"]
    wd = scn["world"]
    a, _, _, _, eps = schedule_of(scn)
    k, gamma, zeta = wd["k"], wd["gamma"], wd["zeta"]
    delta = delta_of(scn)
    honest, best = doc["honest_total"], doc["best_total"]
    if (doc["expert"], doc["horizon"], doc["plan_count"]) != (expert, H, (2 ** k) ** H):
        problems.append(f"expert/horizon/plan_count {doc['expert']}/{doc['horizon']}/"
                        f"{doc['plan_count']}, want {expert}/{H}/{(2 ** k) ** H}")
    cap = eps / ((1.0 + eps) * (1.0 + zeta) - (1.0 - zeta))
    if not close(doc["max_discount"], cap) or gamma > cap:
        problems.append(f"max_discount {doc['max_discount']} != {cap} or gamma above it")
    if best < honest * (1 - REL):
        problems.append(f"best_total {best} < honest_total {honest}")

    world, schedule = world_of(scn, horizon=H), lib_schedule(scn)

    def replay(plan):
        policy = repeated.SingleDeviatorPolicy(expert=expert, plan=plan)
        return repeated.run(world, schedule, policy).discounted_subjective[expert]

    if not close(repeated.run(world, schedule).discounted_subjective[expert], honest):
        problems.append("honest replay does not reproduce honest_total")
    plan = tuple(tuple(int(c) for c in row) for row in doc["best_plan"])
    if len(plan) != H or not close(replay(plan), best):
        problems.append("replaying best_plan does not reproduce best_total")
    rng = random.Random(ctx["sample_seed"])
    vectors = list(itertools.product((0, 1), repeat=k))
    for _ in range(PLAN_SAMPLES):
        sample = tuple(rng.choice(vectors) for _ in range(H))
        total = replay(sample)
        if total > best + REL * max(1.0, abs(best)):
            problems.append(f"plan {sample} reaches {total} > best_total {best}")
            break

    growth = (1.0 + zeta) * gamma
    tail = (1.0 + delta) * 0.5 * a * growth ** H / (1.0 - growth)
    bound = (1.0 + 3.0 * eps) * (1.0 + delta)
    if not close(doc["tail_bound"], tail) or not close(doc["deviation_bound"], bound):
        problems.append("tail_bound or deviation_bound differ from the formulas")
    if honest > 0.0:
        if not close(doc["ratio"], best / honest):
            problems.append("ratio != best_total / honest_total")
        padded = (best + tail) / honest
        if not close(doc["ratio_with_tail"], padded):
            problems.append("ratio_with_tail differs from (best + tail) / honest")
        if padded > bound * (1 + REL):
            problems.append(f"ratio_with_tail {padded} above (1+3eps)(1+delta) = {bound}")
    return problems, []


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def check_validate(cmd, out, csv_text):
    scn, doc, problems = cmd.ctx["scenario"], json.loads(out), []
    a, ap, s, T, eps = schedule_of(scn)
    want = {"a": a, "a_prime": ap, "s": s, "T": T, "epsilon": eps, "delta": delta_of(scn)}
    if any(not close(doc["schedule"][key], v) for key, v in want.items()):
        problems.append(f"schedule {doc['schedule']} != recomputed {want}")
    diag = doc["diagnostics"]
    if not (diag["all_ok"] and diag["a_dominates"] and diag["epsilon_condition"]
            and diag["threshold_identity_residual"] <= 1e-9
            and diag["inflection_residual"] <= 1e-9):
        problems.append(f"diagnostics {diag} for a derived schedule")
    if doc["schedule_form"] != "derived":
        problems.append("schedule_form is not 'derived'")
    return problems, []


def _resolve(scn, text):
    if text == "honest":
        return honest_votes(scn)
    if text == "zeros":
        return [[0] * len(r) for r in beliefs_of(scn)]
    return parse_votes(text)


def check_winner(cmd, out, csv_text):
    scn, doc, problems = cmd.ctx["scenario"], json.loads(out), []
    votes = _resolve(scn, cmd.ctx["profile"])
    if doc["profile"] != votes_str(votes):
        problems.append(f"profile {doc['profile']} != {votes_str(votes)}")
    want, masses, _ = tie_winner(weights_of(scn), votes)
    if doc["winner"] != want:
        problems.append(f"winner {doc['winner']} != {want} by the tie rule (masses {masses})")
    if not all(close(x, m) for x, m in zip(doc["approval_mass"], masses)):
        problems.append(f"approval_mass {doc['approval_mass']} != {masses}")
    utils = [own_utility(scn, votes, i) for i in range(len(votes))]
    if not all(close(x, u) for x, u in zip(doc["utilities"], utils)):
        problems.append(f"utilities {doc['utilities']} != recomputed {utils}")
    return problems, []


def check_qual(cmd, out, csv_text):
    scn, doc, problems = cmd.ctx["scenario"], json.loads(out), []
    quals = qualities(scn)
    opt = opt_of(quals)
    if not all(close(x, q) for x, q in zip(doc["qualities"], quals)) or len(
            doc["qualities"]) != len(quals):
        problems.append(f"qualities {doc['qualities']} != {quals}")
    if doc["opt"]["proposal"] != opt[0] or not close(doc["opt"]["quality"], opt[1]):
        problems.append(f"opt {doc['opt']} != {opt}")
    if doc["threshold"] != scn["schedule"]["T"]:
        problems.append("threshold differs from T")
    return problems, []


def check_honest(cmd, out, csv_text):
    scn, doc = cmd.ctx["scenario"], json.loads(out)
    want = votes_str(honest_votes(cmd.ctx["scenario"]))
    return ([] if doc["profile"] == want else [f"profile {doc['profile']} != {want}"]), []


def check_construct_pne(cmd, out, csv_text):
    scn, doc, problems = cmd.ctx["scenario"], json.loads(out), []
    votes = parse_votes(doc["profile"])
    approvals = [(i, j) for i, row in enumerate(votes) for j, v in enumerate(row) if v]
    if len(approvals) > 1:
        problems.append(f"{doc['profile']} has more than one approval")
    want = tie_winner(weights_of(scn), votes)[0]
    quals = qualities(scn)
    if doc["winner"] != want or not close(doc["winner_quality"],
                                          quals[want - 1] if want else 0.0):
        problems.append(f"winner {doc['winner']} / quality differ from recomputed {want}")
    lib = analysis.is_approx_pne(instance_of(scn), lib_schedule(scn),
                                 core.VotingProfile(votes),
                                 analysis.EquilibriumQuery(mode="strategic", epsilon=0.0))
    if doc["is_strategic_pne"] != lib:
        problems.append("is_strategic_pne differs from is_approx_pne")
    # The construction is an equilibrium when no other expert believes in
    # the winner above T (she would otherwise approve it too).
    T = scn["schedule"]["T"]
    if all(beliefs_of(scn)[i][want - 1] <= T for i in range(len(votes))
           if want and (i, want - 1) not in approvals):
        if not own_is_strategic_pne(scn, votes):
            problems.append(f"{doc['profile']} is not a strategic equilibrium")
    return problems, []


def check_dynamics(cmd, out, csv_text):
    ctx, doc, problems = cmd.ctx, json.loads(out), []
    scn, mode = ctx["scenario"], ctx["mode"]
    state = _resolve(scn, ctx["start"])
    if doc["start"] != votes_str(state) or doc["mode"] != mode:
        problems.append("start or mode echoed wrongly")
    seen = [votes_str(state)]
    for step, move in enumerate(doc["moves"]):
        i = move["expert"]
        if "".join(map(str, state[i])) != move["old"]:
            problems.append(f"move {step}: old votes {move['old']} != current {state[i]}")
            return problems, []
        state[i] = [int(c) for c in move["new"]]
        w = tie_winner(weights_of(scn), state)[0]
        if move["winner"] != w:
            problems.append(f"move {step}: winner {move['winner']} != recomputed {w}")
        seen.append(votes_str(state))
    steps, terminal = doc["steps"], doc["terminal"]
    if steps != len(doc["moves"]):
        problems.append("steps differs from the number of moves")
    if len(set(seen[:-1])) != len(seen) - 1:
        problems.append("a state repeats before the walk ends")
    if terminal == "fixed_point":
        query = analysis.EquilibriumQuery(mode=mode, epsilon=0.0)
        if not analysis.is_approx_pne(instance_of(scn), lib_schedule(scn),
                                      core.VotingProfile(state), query):
            problems.append(f"fixed point {seen[-1]} fails is_approx_pne")
    elif terminal == "cycle":
        length = doc["cycle_length"]
        if not (1 <= length <= steps and seen[steps] == seen[steps - length]):
            problems.append(f"cycle of length {length} does not replay")
    elif terminal != "step_limit" or steps != 64:
        problems.append(f"terminal {terminal} after {steps} steps")
    return problems, []


def check_safety(cmd, out, csv_text):
    ctx, doc, problems = cmd.ctx, json.loads(out), []
    scn = ctx["scenario"]
    a, ap, s, T, _ = schedule_of(scn)

    def effective(g):
        d = a + s + g
        proof = min(T * (a + s) / d, (ap * (1.0 - T) + s) / d)
        return min(max(proof, 0.0), 1.0), min(max((ap * (1.0 - T) + a) / d, 0.0), 1.0)

    env = doc["envelope"]
    eff, statement = effective(ctx["g"])
    if not (close(env["effective_threshold"], eff) and close(env["proof_branch"], eff)
            and close(env["statement_branch"], statement) and env["variant"] == "proof"):
        problems.append(f"envelope {env} != recomputed ({eff}, {statement})")
    if not close(doc["delta"], delta_of(scn)):
        problems.append(f"delta {doc['delta']} != {delta_of(scn)}")
    safe, eligible = [], True
    for e, grow in zip(scn["experts"], externals_of(scn)):
        row = []
        for p, g in zip(e["beliefs"], grow):
            cell = p < effective(g / e["weight"] if g > 0.0 else 0.0)[0]
            row.append(cell)
            eligible &= cell or p >= T
        safe.append(row)
    cert = doc["certificate"]
    if cert["safe"] != safe or cert["eligible"] != eligible:
        problems.append("certificate differs from the recomputed thresholds")
    return problems, []


def check_reward_curve(cmd, out, csv_text):
    ctx, doc, problems = cmd.ctx, json.loads(out), []
    a, ap, s, T, _ = schedule_of(ctx["scenario"])
    samples = ctx["samples"]
    rows = _csv_rows(csv_text)
    if rows[0] != ["p", "approve_value", "reject_value"] or len(rows) != samples + 1:
        return ["CSV header or length"], []
    gaps = []
    for i, row in enumerate(rows[1:]):
        p = i / (samples - 1)
        yes, no = p * a - (1.0 - p) * s, (1.0 - p) * ap
        gaps.append(abs(yes - no))
        if not (close(row[0], p) and close(row[1], yes) and close(row[2], no)):
            problems.append(f"row {i}: {row} != {(p, yes, no)}")
            break
    if not close(doc["min_gap_p"], gaps.index(min(gaps)) / (samples - 1)):
        problems.append("min_gap_p is not the grid point where the branches cross")
    if abs(doc["min_gap_p"] - T) > 1.0 / (samples - 1) or doc["threshold"] != T:
        problems.append("branches do not cross next to T")
    return problems, []


def check_reproduce(cmd, out, csv_text):
    doc = json.loads(out)
    failed = [k for k, v in doc["claims"].items() if not v]
    if doc["pass"] is not True or failed or not doc["claims"]:
        return [f"failed claims {failed}"], []
    return [], []


CHECKERS = {
    "enumerate": check_enumerate,
    "repeat": check_repeat,
    "deviation": check_deviation,
    "validate": check_validate,
    "winner": check_winner,
    "qual": check_qual,
    "honest": check_honest,
    "construct-pne": check_construct_pne,
    "dynamics": check_dynamics,
    "safety": check_safety,
    "reward-curve": check_reward_curve,
    "reproduce": check_reproduce,
}


def check(cmd, rc, out, csv_text):
    """Problems and notes for one command's exit code, stdout and CSV."""
    if rc != 0:
        return [f"exit code {rc}"], []
    try:
        return CHECKERS[cmd.check](cmd, out, csv_text)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], []
