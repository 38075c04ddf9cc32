"""Frozen suite output: the full-tier reports of all sixteen claims in
cli.SUITE, byte for byte in canonical form, and the reports of every
tier by claim, field and hash."""

import hashlib

import pytest

from polyfam.cli import SUITE, main
from polyfam.report import DEFAULT_SEED
from report_io import report_from_json

GOLDEN = {
    "ekr-bound": [
        '{"claimId":"ekr-bound","counters":{"edges":243,"maxClique":9,"maximumCliques":9,"nodesExplored":0,"vertices":27},"fieldSpec":"3^1","parameters":{"k":2,"pencilPoints":[[0,0],[2,0],[1,0],[1,1],[0,1],[2,1],[2,2],[1,2],[0,2]],"proven":true},"primaryCounter":"maxClique","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"ekr-bound","counters":{"edges":1344,"maxClique":16,"maximumCliques":16,"nodesExplored":0,"vertices":64},"fieldSpec":"2^2","parameters":{"k":2,"pencilPoints":[[0,0],[1,0],[2,0],[3,0],[1,1],[0,1],[3,1],[2,1],[2,2],[3,2],[0,2],[1,2],[3,3],[2,3],[1,3],[0,3]],"proven":true},"primaryCounter":"maxClique","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "hm-properties": [
        '{"claimId":"hm-properties","counters":{"cases":7},"fieldSpec":"multiple","parameters":{},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "pencil-extension": [
        '{"claimId":"pencil-extension","counters":{"cases":2,"extensionChecks":1480},"fieldSpec":"multiple","parameters":{},"primaryCounter":"cases","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "direction-span-affine": [
        '{"claimId":"direction-span-affine","counters":{"affine":16,"candidates":16,"nodesVisited":37,"scanned":256},"fieldSpec":"2^2","parameters":{"mode":"exhaustive","order":"odometer, low element index first"},"primaryCounter":"affine","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"direction-span-affine","counters":{"affine":64,"candidates":64,"nodesVisited":841,"scanned":16777216},"fieldSpec":"2^3","parameters":{"mode":"exhaustive","order":"odometer, low element index first"},"primaryCounter":"affine","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "power-map-class": [
        '{"claimId":"power-map-class","counters":{"found":1,"predicted":1},"fieldSpec":"5^1","parameters":{"delta":2,"exponent":2},"primaryCounter":"found","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"power-map-class","counters":{"found":2,"predicted":2},"fieldSpec":"3^2","parameters":{"delta":2,"exponent":4},"primaryCounter":"found","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "clique-bounds": [
        '{"claimId":"clique-bounds","counters":{"intersectingBound":2,"intersectingMax":2,"intersectingNodes":2,"scatteredBound":2,"scatteredMax":2,"scatteredNodes":2},"fieldSpec":"2^1","parameters":{"k":1,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":4,"intersectingMax":4,"intersectingNodes":4,"scatteredBound":2,"scatteredMax":2,"scatteredNodes":2},"fieldSpec":"2^1","parameters":{"k":2,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":2,"intersectingMax":2,"intersectingNodes":2,"scatteredBound":4,"scatteredMax":4,"scatteredNodes":4},"fieldSpec":"2^1","parameters":{"k":2,"t":2},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":3,"intersectingMax":3,"intersectingNodes":3,"scatteredBound":3,"scatteredMax":3,"scatteredNodes":3},"fieldSpec":"3^1","parameters":{"k":1,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":9,"intersectingMax":9,"intersectingNodes":9,"scatteredBound":3,"scatteredMax":3,"scatteredNodes":3},"fieldSpec":"3^1","parameters":{"k":2,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":3,"intersectingMax":3,"intersectingNodes":3,"scatteredBound":9,"scatteredMax":9,"scatteredNodes":11},"fieldSpec":"3^1","parameters":{"k":2,"t":2},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":4,"intersectingMax":4,"intersectingNodes":4,"scatteredBound":4,"scatteredMax":4,"scatteredNodes":4},"fieldSpec":"2^2","parameters":{"k":1,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":16,"intersectingMax":16,"intersectingNodes":16,"scatteredBound":4,"scatteredMax":4,"scatteredNodes":9},"fieldSpec":"2^2","parameters":{"k":2,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":4,"intersectingMax":4,"intersectingNodes":4,"scatteredBound":16,"scatteredMax":16,"scatteredNodes":16},"fieldSpec":"2^2","parameters":{"k":2,"t":2},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":5,"intersectingMax":5,"intersectingNodes":5,"scatteredBound":5,"scatteredMax":5,"scatteredNodes":5},"fieldSpec":"5^1","parameters":{"k":1,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":25,"intersectingMax":25,"intersectingNodes":25,"scatteredBound":5,"scatteredMax":5,"scatteredNodes":11},"fieldSpec":"5^1","parameters":{"k":2,"t":1},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"clique-bounds","counters":{"intersectingBound":5,"intersectingMax":5,"intersectingNodes":5,"scatteredBound":25,"scatteredMax":25,"scatteredNodes":54},"fieldSpec":"5^1","parameters":{"k":2,"t":2},"primaryCounter":"intersectingMax","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "quad-sum-identity": [
        '{"claimId":"quad-sum-identity","counters":{"checked":18},"fieldSpec":"3^1","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"quad-sum-identity","counters":{"checked":100},"fieldSpec":"5^1","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"quad-sum-identity","counters":{"checked":294},"fieldSpec":"7^1","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"quad-sum-identity","counters":{"checked":648},"fieldSpec":"3^2","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"quad-sum-identity","counters":{"checked":1210},"fieldSpec":"11^1","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"quad-sum-identity","counters":{"checked":2028},"fieldSpec":"13^1","parameters":{},"primaryCounter":"checked","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "square-coeff-relation": [
        '{"claimId":"square-coeff-relation","counters":{"scanned":6561,"squares":41,"violations":0},"fieldSpec":"3^2","parameters":{"frobPower":1,"shapeDegree":4},"primaryCounter":"squares","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "square-value-shortcut": [
        '{"claimId":"square-value-shortcut","counters":{"controlTriples":14400,"largeValueSets":1500,"scanned":375000,"violations":0},"fieldSpec":"5^2","parameters":{"minLargeCount":24},"primaryCounter":"largeValueSets","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "weil-bound": [
        '{"claimId":"weil-bound","counters":{"checked":1000},"fieldSpec":"3^2","parameters":{"maxDegree":5},"primaryCounter":"checked","seed":20257,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"weil-bound","counters":{"checked":1000},"fieldSpec":"5^2","parameters":{"maxDegree":5},"primaryCounter":"checked","seed":20273,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"weil-bound","counters":{"checked":1000},"fieldSpec":"7^2","parameters":{"maxDegree":5},"primaryCounter":"checked","seed":20297,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"weil-bound","counters":{"checked":1000},"fieldSpec":"11^2","parameters":{"maxDegree":5},"primaryCounter":"checked","seed":20369,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "pencil-size": [
        '{"claimId":"pencil-size","counters":{"cases":3},"fieldSpec":"multiple","parameters":{},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "hm-size": [
        '{"claimId":"hm-size","counters":{"cases":7},"fieldSpec":"multiple","parameters":{},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "hm-threshold": [
        '{"claimId":"hm-threshold","counters":{"cases":42},"fieldSpec":"odd prime powers 11..169","parameters":{"note":"family size must stay at or below the k=2 stability threshold"},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "tangent-size": [
        '{"claimId":"tangent-size","counters":{"cases":5},"fieldSpec":"multiple","parameters":{"altClosedFormTwice":{"11":111,"13":157,"5":21,"7":43,"9":73},"note":"construction count is q(q-1)/2 + 1; the alternate closed form (q^2-q+1)/2 is non-integral for odd q (its doubled numerator is reported per field under altClosedFormTwice, never as the target)","sizeConstructed":{"11":56,"13":79,"5":11,"7":22,"9":37}},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "rootable-count": [
        '{"claimId":"rootable-count","counters":{"cases":8},"fieldSpec":"multiple","parameters":{},"primaryCounter":"cases","seed":null,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
    "stability-probe": [
        '{"claimId":"stability-probe","counters":{"distinctSizes":3,"maxSize":16,"overThreshold":3261,"trials":10000},"fieldSpec":"2^2","parameters":{"k":2,"sizeDistribution":{"10":5482,"16":3261,"8":1257},"trials":10000},"primaryCounter":"maxSize","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"stability-probe","counters":{"distinctSizes":8,"maxSize":25,"overThreshold":2045,"trials":10000},"fieldSpec":"5^1","parameters":{"k":2,"sizeDistribution":{"10":128,"11":2218,"12":779,"13":957,"15":3203,"25":2045,"7":105,"9":565},"trials":10000},"primaryCounter":"maxSize","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"stability-probe","counters":{"distinctSizes":15,"maxSize":49,"overThreshold":1149,"trials":10000},"fieldSpec":"7^1","parameters":{"k":2,"sizeDistribution":{"10":107,"11":453,"12":820,"13":788,"14":577,"15":1132,"16":554,"17":476,"18":544,"19":1179,"20":156,"22":155,"28":1895,"49":1149,"9":15},"trials":10000},"primaryCounter":"maxSize","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"stability-probe","counters":{"distinctSizes":19,"maxSize":64,"overThreshold":838,"trials":10000},"fieldSpec":"2^3","parameters":{"k":2,"sizeDistribution":{"10":34,"11":100,"12":230,"13":741,"14":1020,"15":649,"16":575,"17":783,"18":622,"19":208,"20":415,"21":165,"22":976,"24":946,"32":104,"36":1591,"64":838,"8":2,"9":1},"trials":10000},"primaryCounter":"maxSize","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
        '{"claimId":"stability-probe","counters":{"distinctSizes":24,"maxSize":81,"overThreshold":678,"trials":10000},"fieldSpec":"3^2","parameters":{"k":2,"sizeDistribution":{"10":6,"11":28,"12":134,"13":488,"14":668,"15":747,"16":563,"17":516,"18":562,"19":624,"20":597,"21":404,"22":368,"23":162,"24":299,"25":100,"26":203,"27":304,"28":548,"29":539,"30":57,"37":105,"45":1300,"81":678},"trials":10000},"primaryCounter":"maxSize","seed":20248,"toolVersion":"0.1.0","verdict":"pass","wallTimeMs":0,"witnesses":[]}',
    ],
}


def test_every_claim_is_frozen():
    assert sorted(GOLDEN) == sorted(name for name, _ in SUITE)


@pytest.mark.parametrize("claim", sorted(GOLDEN))
def test_full_tier_canonical_json_is_frozen(capsys, claim):
    code = main(["suite", "--tier", "full", "--claim", claim])
    out, _ = capsys.readouterr()
    assert code == 0
    got = [report_from_json(line).canonical_json() for line in out.splitlines()]
    assert got == GOLDEN[claim]


CLIQUE_BOUNDS = [spec for spec in ("2^1", "3^1", "2^2", "5^1") for _ in range(3)]

# tier -> the first 12 hex digits of the SHA-1 of the tier's reports'
# canonical_json lines joined by newlines, in cli.SUITE order at
# DEFAULT_SEED, and each claim's reports by fieldSpec, in that order
TIERS = {
    "fast": (
        "790fc9423a91",
        {
            "ekr-bound": ["3^1", "2^2"],
            "pencil-size": ["multiple"],
            "hm-size": ["multiple"],
            "hm-properties": ["multiple"],
            "hm-threshold": ["odd prime powers 11..169"],
            "tangent-size": ["multiple"],
            "quad-sum-identity": ["3^1", "5^1", "7^1"],
            "weil-bound": ["3^2", "5^2"],
            "direction-span-affine": ["2^2"],
            "square-value-shortcut": ["5^2"],
            "square-coeff-relation": ["3^2"],
            "power-map-class": ["5^1"],
            "clique-bounds": CLIQUE_BOUNDS,
            "rootable-count": ["multiple"],
            "stability-probe": ["2^2", "5^1"],
            "pencil-extension": ["multiple"],
        },
    ),
    "full": (
        "839a2449f2aa",
        {
            "ekr-bound": ["3^1", "2^2"],
            "pencil-size": ["multiple"],
            "hm-size": ["multiple"],
            "hm-properties": ["multiple"],
            "hm-threshold": ["odd prime powers 11..169"],
            "tangent-size": ["multiple"],
            "quad-sum-identity": ["3^1", "5^1", "7^1", "3^2", "11^1", "13^1"],
            "weil-bound": ["3^2", "5^2", "7^2", "11^2"],
            "direction-span-affine": ["2^2", "2^3"],
            "square-value-shortcut": ["5^2"],
            "square-coeff-relation": ["3^2"],
            "power-map-class": ["5^1", "3^2"],
            "clique-bounds": CLIQUE_BOUNDS,
            "rootable-count": ["multiple"],
            "stability-probe": ["2^2", "5^1", "7^1", "2^3", "3^2"],
            "pencil-extension": ["multiple"],
        },
    ),
    "extended": (
        "ea19f8d657bf",
        {
            "ekr-bound": ["2^1", "3^1", "2^2"],
            "pencil-size": ["multiple"],
            "hm-size": ["multiple"],
            "hm-properties": ["multiple"],
            "hm-threshold": ["odd prime powers 11..169"],
            "tangent-size": ["multiple"],
            "quad-sum-identity": ["3^1", "5^1", "7^1", "3^2", "11^1", "13^1"],
            "weil-bound": ["3^2", "5^2", "7^2", "11^2"],
            "direction-span-affine": ["2^2", "2^3", "3^2", "2^4", "5^2", "3^3"],
            "square-value-shortcut": ["5^2", "7^2", "3^4", "11^2"],
            "square-coeff-relation": ["3^2", "3^3", "3^3", "5^2", "3^4"],
            "power-map-class": ["5^1", "3^2", "2^2"],
            "clique-bounds": CLIQUE_BOUNDS,
            "rootable-count": ["multiple"],
            "stability-probe": ["2^2", "5^1", "7^1", "2^3", "3^2"],
            "pencil-extension": ["multiple"],
        },
    ),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_tier_reports_are_pinned(tier):
    digest, specs = TIERS[tier]
    reports = [r for _, run in SUITE for r in run(tier, DEFAULT_SEED)]
    assert [(r.claim_id, r.field_spec) for r in reports] == [
        (claim, spec) for claim, claim_specs in specs.items() for spec in claim_specs
    ]
    # every claim yields a report at every tier
    assert list(dict.fromkeys(r.claim_id for r in reports)) == [claim for claim, _ in SUITE]
    joined = "\n".join(r.canonical_json() for r in reports)
    assert hashlib.sha1(joined.encode()).hexdigest()[:12] == digest
