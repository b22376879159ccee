"""The ledger is immutable after load and every query path is a pure
function, so concurrent readers must agree with serial runs."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from knotconc import cyclotomic, infer, signatures
from knotconc.cyclotomic import Cyclotomic
from knotconc.infer import InferenceEngine, infer_theta
from knotconc.knots import parse_expression
from knotconc.ledger import load_seed_ledger
from knotconc.seifert import two_strand_torus_matrix
from knotconc.signatures import lt_signature, sigma_q
from conftest import random_seifert

QUERIES = ["9_42", "-9_42", "-(9_42) + Wh(T(2,3))", "T(3,7)", "T(2,5)",
           "Wh(T(2,5)) + -Wh(T(2,3))", "-T(3,13)", "T(2,11)"]


def test_concurrent_inference_matches_serial():
    ledger = load_seed_ledger()
    serial = [infer_theta(ledger, parse_expression(t)) for t in QUERIES]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda t: infer_theta(ledger, parse_expression(t)), QUERIES * 4
        ))
    for i, iv in enumerate(parallel):
        want = serial[i % len(QUERIES)]
        assert (iv.lower, iv.upper) == (want.lower, want.upper)


def test_concurrent_queries_of_one_shape_share_one_universe():
    # relation-free queries whose atoms, in key order, occur (1, 2, 1)
    # times are all closed from one cached universe; emptying the cache
    # first makes the threads race to fill it
    ledger = load_seed_ledger()
    texts = ["T(2,11) + T(2,7) + T(2,7) + -T(3,5)", "-T(2,13) + -T(2,17) + -T(2,17) + T(3,11)",
             "T(2,19) + T(2,23) + T(2,23) + T(2,29)", "-T(3,13) + T(3,17) + T(3,17) + -T(3,7)"]
    serial = [infer_theta(ledger, parse_expression(t)) for t in texts]

    def run(text):
        engine = InferenceEngine(ledger, 2)
        return engine, engine.run(parse_expression(text))

    infer._shapes.clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, texts * 4))
    finally:
        sys.setswitchinterval(old)
    for attr in ("_mirror", "_r2", "_split_start", "_part_of"):
        assert len({id(getattr(engine, attr)) for engine, _ in parallel}) == 1
    for i, (_, iv) in enumerate(parallel):
        want = serial[i % len(texts)]
        assert (iv.lower, iv.upper, list(iv.justification), iv.provenance) == (
            want.lower, want.upper, list(want.justification), want.provenance)


def test_concurrent_signatures_match_serial():
    jobs = [(two_strand_torus_matrix(k), q, j)
            for k in (3, 5, 7, 11) for q in (2, 3, 5) for j in range(1, q)]
    serial = [lt_signature(V, q, j) for V, q, j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: lt_signature(*a), jobs))
    assert parallel == serial


def test_concurrent_sigma_q_over_shared_cosine_cache():
    # sign() reads its table of cosines from a cache shared by all threads;
    # clearing it first makes the threads fill it while others read it, at
    # every precision the escalation reaches
    rng = random.Random(36)
    jobs = [(random_seifert(rng, rng.randint(1, 3), span=9, zero_diagonal=i % 4 == 0), q)
            for i in range(6) for q in (2, 3, 5, 7, 11)]
    fib = [0, 1]
    while len(fib) < 122:
        fib.append(fib[-1] + fib[-2])
    x = Cyclotomic.zeta_power(5, 1) + Cyclotomic.zeta_power(5, 4)
    close = [x - Cyclotomic(5, [fib[n], 0, 0, 0], fib[n + 1])
             for n in range(100, 120)]
    serial = [sigma_q(V, q) for V, q in jobs] + [d.sign() for d in close]
    cyclotomic._cosines.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(sigma_q, V, q) for V, q in jobs * 2]
            futures += [pool.submit(d.sign) for d in close * 2]
            parallel = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(old)
    n = len(jobs)
    assert parallel[:n] == parallel[n:2 * n] == serial[:n]
    assert parallel[2 * n:] == serial[n:] * 2


def test_concurrent_prime_search_matches_serial():
    # the lazy prime cache is extended by whichever thread first needs a
    # prime; every thread must still read one sequence of distinct primes
    jobs = [(q, i) for q in (3, 5, 7) for i in range(6)] * 3
    serial = [signatures._prime(q, i) for q, i in jobs]
    signatures._primes.clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(signatures._prime, q, i) for q, i in reversed(jobs)]
            parallel = [f.result(timeout=60) for f in futures][::-1]
    finally:
        sys.setswitchinterval(old)
    assert parallel == serial
    for q in (3, 5, 7):
        primes = [p for p, r in signatures._primes[q]]
        assert primes == sorted(set(primes), reverse=True)
