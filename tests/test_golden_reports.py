"""Golden digests of CLI reports: seven commands on the corpus
pseudomanifolds, the connectivity checks on two larger instances, t2 and
four flag walks on a pinched torus, the homology analyses and t3 on every
corpus complex and two complexes that are Cohen-Macaulay but not doubly so,
and seeded face and flag walks on relabelled bary(cross4) and bary(torus7).

Reports are part of the contract: a change that means to keep behaviour
must keep every report byte-identical.  Each entry below is the exit code
and the sha256 of ``json.dumps(report["results"], sort_keys=True)`` for one
command on one complex (None when the command prints no report).  Only
``results`` is hashed, because ``input.path`` names the temporary file.

A change that means to alter reports copies the new digests from the
failing assertion into the table and says so in CHANGES.md.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import simplicial.cli as cli
from simplicial import (
    barycentric_subdivision,
    build_complex,
    cross_polytope_boundary,
    facet_file_text,
    join,
    torus_7,
)

PSEUDOMANIFOLDS = (
    "octahedron", "cross4", "cross5", "icosahedron", "torus7", "simplex_bd3",
    "bary_tetra", "bary_octa", "hexagon", "rp2",
)


def _walk_args(cx):
    """Endpoints a, b and the avoided sets of one face and one flag walk."""
    vs = cx.vertices
    d = cx.dimension + 1
    a = vs[0]
    near = {x for e in cx.faces(1) if a in e for x in e}
    far = [v for v in vs if v not in near]
    b = far[-1] if far else vs[-1]
    # the first largest face that a facet keeps once a and b are dropped
    face_avoid = max(
        (tuple(x for x in f if x not in (a, b)) for f in cx.facets), key=len
    )
    flag_avoid = [v for v in vs if v not in (a, b)][: 2 * d - 3]
    return a, b, face_avoid, flag_avoid


def _commands(cx, path):
    a, b, face_avoid, flag_avoid = _walk_args(cx)
    walk = ["walk", path, "--from", str(a), "--to", str(b), "--avoid"]
    return {
        "analyze": ["analyze", path],
        "t1": ["verify", "t1", path],
        "lb": ["verify", "lb", path],
        "t2-all": ["verify", "t2", path, "--all-facets"],
        "gk1": ["verify", "gk", path, "--k", "1"],
        "walk-face": walk + [",".join(map(str, face_avoid)), "--mode", "face"],
        "walk-flag": walk + [",".join(map(str, flag_avoid)), "--mode", "flag"],
    }


def _digests(cx, path, commands=_commands):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(facet_file_text(cx))
    out = {}
    for name, argv in commands(cx, path).items():
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest = None
        if stdout.getvalue():
            results = json.loads(stdout.getvalue())["results"]
            text = json.dumps(results, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
        out[name] = (code, digest)
    return out


GOLDEN = {
    'octahedron': {
        'analyze': (0, 'ae702beb6d217ad616fa8d16e2ffd3f33043c4063d25e9c58a261d5a9dd047a8'),
        't1': (0, '9e0334aa0c369b22305a24e716d69d73313ed6c630c0497b3396e441545cec3d'),
        'lb': (0, '52bba3503c5479aa5d0fbabe2ae82452874b8b677233b755a22ddf19331e177b'),
        't2-all': (0, 'e35491acac1cfeb95c10dca68b36fedb1173c463d4f3fc9022f2ce403aa681b1'),
        'gk1': (0, 'daf2f032fde9a884aa31bcaeabe9469458e72a9b05ce4e81fcee0d7d40d11725'),
        'walk-face': (0, '3f307af2e153a3328529d054edb4c473bed22725624757d6f2f4ce95c0a0cf31'),
        'walk-flag': (0, '53dccbb7f5909fea33107bff2be2b4cc6dfa34d4a266b665eb5d5deb6a54b41d'),
    },
    'cross4': {
        'analyze': (0, '345091bab2dc95832cb471b680121dda573b84d3176951ceb3479055bc135291'),
        't1': (0, 'cb1c360a257f36db6a077846300203734a1e80d8196d62394ba2c1d89e1dc845'),
        'lb': (0, 'be8b007448721b4e2a7a3102577fb0297a4124dabe19af010f651ed9d0ebe57a'),
        't2-all': (0, '01aff90885071c3a180a973a7d6ef278571e7547e6dd36938c016ba7498cd33c'),
        'gk1': (0, '746d65d9f8241fa2d0b7ba53629699f906c2b1c204d20e2c887893a48038a5d3'),
        'walk-face': (0, '63014d43925a3af52812287f72f76303733841596a93373d7a41ed70c86a480b'),
        'walk-flag': (0, 'e0d86b60e27b59ced5e147dde74640f258e6fd759faa42a11275b28ce62e8821'),
    },
    'cross5': {
        'analyze': (0, '2125c2b6a5e4e3137071aac8b151da8bfc22c09014f20d691e2a6d62c8227bb4'),
        't1': (0, '76e8805e3a0bc19f719986aeb8bfeaee137cb7111dddea432067f7d6de07ced2'),
        'lb': (0, '7231649afb2414db92e12b7ebc98e23d4f3fadf4314d082c7a12d3d7ca4229ee'),
        't2-all': (0, 'f7f014192a7f38a2f2556bc70bf734ea7ba9e7838d28951ab9964674bebca592'),
        'gk1': (0, 'e7f43abe157a7ecdfc18b65dd0e06b067b5ba3d9a638823046dbbe5c7fca2c8d'),
        'walk-face': (0, '89c7a86abf96870092da8073773787804c5b62db874578d75f3723afb204c168'),
        'walk-flag': (0, '9532d1bfe853910d01b07e89d9a0aab69547402692017897f831d62a92f08c5a'),
    },
    'icosahedron': {
        'analyze': (0, '5f78c83d30a00f80badf397d758f9c372af28ec7ac28567ad0ab25d23c355e5d'),
        't1': (0, '573678d75f34c109f69ecbe8f1f1675bc9c019dbc260fd31dc0d90fb60432324'),
        'lb': (0, '2852072f159e564bbdce512c06dae73d5a4d75cbab7a72a8f790391e47872772'),
        't2-all': (0, 'fbe3a3ef23daa276fbb10fabf2d656eff926c5c8b06409ad0564dc033d61d037'),
        'gk1': (0, '910d138a2e9240d7158eea59ed6149f53e71ed4ea45ea343f06ebb1cbfacff36'),
        'walk-face': (0, 'bc1c0430ecee99081dec3fab0c4c0641e7c51f724191e60b3ae8110c4540866f'),
        'walk-flag': (0, '565f7ff3f885d013513085cccc1bf42e8014d0d6626fc0857042b1ed93324f34'),
    },
    'torus7': {
        'analyze': (0, '6dc1c3d835681829533b8d7a5fc73c8f49170603236272316e2686943066e3ad'),
        't1': (4, '19cf5e1662a7198e896fa585316a109fccc6b9ae17dee0d7d52c2b2a5884f0a9'),
        'lb': (4, 'd4ca3d7800e450360cd3273fd3652b446cb0b48de88ac30818eddb9a33f66261'),
        't2-all': (4, '0cce16d22e0c2130492a19aaa787bc34d3d73d37b262defe42ec8ef10e9886eb'),
        'gk1': (4, '44aa7e6fecd66fccb8d93c49fbbffe9e33ac8e997bbb6fe71ba9c4aef0d5e43c'),
        'walk-face': (0, '2514315e765ec968ce3c00d5e90941eec7834c068d76208ff1bc3c01f1fbfc7c'),
        'walk-flag': (2, None),
    },
    'simplex_bd3': {
        'analyze': (0, '0100b20171d3dfb46e5732a585c0a2fb0950306cf2eb2a77a455255108bd6c48'),
        't1': (4, 'c7eb7fc2bf514d46bf47eb19e8d88dbaac2000fabfd830fbd7a57d33352d9356'),
        'lb': (4, 'dd80190ebe51d307e507c6421cc95a4b1592c769bbffe1c8ff82e4d2f7fa845c'),
        't2-all': (4, '0494056267f00455fd1e20dbd9b48accd4af776a478f321f50eb98ba4fa3f9bb'),
        'gk1': (4, '9214917be7585cfa7b95e40901a1b9b09e4c02c1ea0364cdcc05c5107a91f7c4'),
        'walk-face': (0, '1fab1c40fcb5c892a128b12d7d670d5fa1b5c6ab47354c089eb05fe2b937e6a7'),
        'walk-flag': (2, None),
    },
    'bary_tetra': {
        'analyze': (0, 'a00490970ed0371f77963c1910304a838601c42bf68a4b9559a0d805b7544455'),
        't1': (0, '77ff41a85bd748b3ed4169c12cf867f7823a1484285ff3d3f8e46c9da81eedfd'),
        'lb': (0, '46d3827c9864683c1e280ae1e4453debc9ddb0a55d0f9b623358699e209acf45'),
        't2-all': (0, '1ea588cb3f897adab0f2cf7fb3e46b4b849bce12e3e789ecf2c98da1ecef7ba0'),
        'gk1': (0, 'bad93d33f4bccc0f3cd9b405b72a714a5acb92349b40a6ae5fb7b8e465badfc7'),
        'walk-face': (0, 'c3448d369d942cc070ef8ae30211e88224991009fcc04e1bfd0443b89e48748d'),
        'walk-flag': (0, 'bf4e11ff0364a86d81a2ac9473bb8c22f8c77e3080a112b7dbf3788c95177e43'),
    },
    'bary_octa': {
        'analyze': (0, 'af82cdd363e0d4df7002da4a2074587fb59fd7065cf4890f29542df8f39c6caf'),
        't1': (0, '9df3f6a592c33008465cfdb60d7f06d7d47b4046ff374fffc0ac43d5bf0c7654'),
        'lb': (0, '4183105f6e68206ab65bbb74d23d90934896428e60475f43d9427fe7b856e295'),
        't2-all': (0, 'ff655760995090d4207114686fdc1dec52da9fea5e7e69409052f2cb1c86f5b2'),
        'gk1': (0, 'ae5288f507f41af236094b0b43c0f6bbbe35ce363c271eeb17806a5a84e9e544'),
        'walk-face': (0, 'b3288177c6f88ce52b836828c54e99eff4764123f603a5d1f1bf8fc21edf6c13'),
        'walk-flag': (0, '6999edf3160ff84b1b04768222f5d7a7f73268984448ccbc7e775edea8711dcb'),
    },
    'hexagon': {
        'analyze': (0, '2655e26dd5162c6640f7cd086b4b7d6e57dd04ff4a8502c16dc00ab436a7f8a9'),
        't1': (0, '5c701813425b02ddaeb9137849f0871ad5e9935e5a798454df03fa018f2175d5'),
        'lb': (0, 'c8a134bd977d435ecb016c36d6b4208fd874c977c001b6d8f283658155b80e75'),
        't2-all': (0, 'd5fd43f8bc11b4facb0fb719a1e8c569d3fba303c3c1bc658ecc130e04dfbbc0'),
        'gk1': (2, None),
        'walk-face': (0, 'f84fa85ffdb0425d8c2d6f99d3b54ded9b481546e71cab3096ddd85e6e008d62'),
        'walk-flag': (0, 'b0751dddaf522c5b20a1ceeb0dce0d5c7b854d0836282abe809bd6de9eabdc2f'),
    },
    'rp2': {
        'analyze': (0, 'c4065b557a7e6ab0a7764d344ee0a6c21f400f607ecb5a5217a82137bd93381b'),
        't1': (4, '761fa9e516f26b2294e3c0113c810cdfa3951b549552fd5ff319e409da26f8ab'),
        'lb': (4, '2408f017b4c26027e9916c822e5ed6876ab8323cb842ac899c098a2c0233e895'),
        't2-all': (4, '015b9c0891d7d6be23203fe8eff03c6ad75c26f1c11aa3a76d1143e9e427ba19'),
        'gk1': (4, '8541f4c58c85dd2cdb82bd65edeff9f44fb02c05597bc2f1395e1192240f9b82'),
        'walk-face': (0, '4c0465ba8d49c9d9e4677c2bd85e509a70eef561f45c0e1396ae0d0d49716ac3'),
        'walk-flag': (2, None),
    },
}


@pytest.mark.parametrize("name", PSEUDOMANIFOLDS)
def test_cli_reports_match_golden_digests(name, corpus, tmp_path):
    assert _digests(corpus[name], str(tmp_path / f"{name}.txt")) == GOLDEN[name]


def _connectivity_commands(cx, path):
    return {
        "t1": ["verify", "t1", path],
        "gk1": ["verify", "gk", path, "--k", "1"],
    }


def _bary_cross3_relabelled():
    """bary(cross3) with vertex i (1..26) renamed 7 * i mod 29, so the
    minimum-degree vertex and the pair order differ from the corpus copy."""
    cx = barycentric_subdivision(cross_polytope_boundary(3))
    return build_complex([[7 * v % 29 for v in f] for f in cx.facets])


# the connectivity instances of the certify benchmark, whose pair lists are
# longer than the corpus ones
CONNECTIVITY_INSTANCES = {
    "cross6": lambda: cross_polytope_boundary(6),
    "bary_cross3_relabelled": _bary_cross3_relabelled,
}

GOLDEN_CONNECTIVITY = {
    'cross6': {
        't1': (0, '6543bc79e97e97e6cabc1474214f0ec41aa008ad8a0ac873e89586e75703ffb5'),
        'gk1': (0, '6bf2d804c83ca2807917346c0585c73ebdd29c59a6d563b3cb93e3824960080d'),
    },
    'bary_cross3_relabelled': {
        't1': (0, '768ead62f537d508590ad9f90831115f43685987d37db5482e6ee6f0cbe089c9'),
        'gk1': (0, 'c98c53789e7d50f2d96868d5cfab1a85b0c378acd122681893d1b1f0144989af'),
    },
}


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_INSTANCES))
def test_connectivity_reports_match_golden_digests(name, tmp_path):
    cx = CONNECTIVITY_INSTANCES[name]()
    got = _digests(cx, str(tmp_path / f"{name}.txt"), _connectivity_commands)
    assert got == GOLDEN_CONNECTIVITY[name]


def _pinched_torus_commands(cx, path):
    """t2 at every facet, and flag walks that avoid the pinch vertex 1.

    Its link is two circles, so t2 walks circles of a disconnected link,
    and each walk here reroutes through one of the two components of
    lk(1); the walk from 155 to 8 also splits an avoided edge at 1.
    """
    runs = {
        "t2-all": ["verify", "t2", path, "--all-facets"],
    }
    for a, b, avoid in ((36, 47, "1"), (144, 155, "1,2,36"), (155, 8, "1,39"),
                        (38, 45, "1,144")):
        runs[f"walk-flag-{a}-{b}"] = [
            "walk", path, "--from", str(a), "--to", str(b), "--avoid", avoid,
            "--mode", "flag",
        ]
    return runs


# recorded before t2 and the flag walk read links off masks
GOLDEN_PINCHED_TORUS = {
    't2-all': (0, '5829edd3e43ded75fc8c05e10e007272094617f470885d86b627b5f16bac1013'),
    'walk-flag-36-47': (0, 'ba82dd1b28269108bea1fcba9257fa2d34c110a3f5dad60670f073669793fd87'),
    'walk-flag-144-155': (0, '675f3fdd070c5187dce7dd8f25be2991c3739e671422f1eedad3a4827b7288f2'),
    'walk-flag-155-8': (0, '8ea5534d5803b007769d81540c3c14c2226f4d2aef16c8c79c7ece52cdf00410'),
    'walk-flag-38-45': (0, 'd80745eab585deb477ccb7f4f8f5a017ff9017226ca2fccb804cc07489482046'),
}


def test_pinched_torus_reports_match_golden_digests(pinched_torus, tmp_path):
    got = _digests(pinched_torus, str(tmp_path / "pinched.txt"), _pinched_torus_commands)
    assert got == GOLDEN_PINCHED_TORUS


def _homology_commands(cx, path):
    analyze = {
        f"analyze-{f}": ["analyze", path, "--homology", f]
        for f in ("gf2", "gf3", "rational")
    }
    return {
        **analyze,
        "t3": ["verify", "t3", path],
        "t3-rational": ["verify", "t3", path, "--field", "rational"],
    }


def _homology_instance(name, corpus):
    """A corpus complex, or one of two CM complexes that are not 2-CM: the
    cone over the octahedron and the octahedron minus one facet (a disc)."""
    octa = corpus["octahedron"]
    if name == "cone_octa":
        return join(octa, build_complex([(7,)]))
    if name == "octa_minus_facet":
        return build_complex(octa.facets[1:])
    return corpus[name]


HOMOLOGY_INSTANCES = (
    "octahedron", "cross4", "cross5", "icosahedron", "torus7", "simplex_bd3",
    "bary_tetra", "bary_octa", "hexagon", "books", "path", "two_triangles", "rp2",
    "cone_octa", "octa_minus_facet",
)

# recorded from the per-deletion link sweep, before the Mayer-Vietoris rule
GOLDEN_HOMOLOGY = {
    'octahedron': {
        'analyze-gf2': (0, '636f03d2da43876a9f0ff01cd11e8d58d9629f0f54a973ff9b4687388d51d42e'),
        'analyze-gf3': (0, 'b8130ba437c03cf932c0dc00f502cf1df29d0e96a548e89f34d79adab6184f8c'),
        'analyze-rational': (0, '15b88b6669301e4933ed51f39ca9186d257c83a71861012d7b12330a05c3c246'),
        't3': (0, 'f5400823d9609da162c195844f0bd163b49b975997b396ec2bb516577e06ddb2'),
        't3-rational': (0, '71ff686e5a8dcb694d9f7e2dd57c58121b1302e3297c1953340ed3aef14f5a02'),
    },
    'cross4': {
        'analyze-gf2': (0, 'e0f93fbda646de4919e4beadfa7d1809315258a6b58428e7abb99574694c8f2b'),
        'analyze-gf3': (0, '7796dc861ec5c21f332358a68137b77bf14b4952483e9003a4c98395db23cd57'),
        'analyze-rational': (0, '33e57023e5c7091f26272a9d5e607c6677437e2db383f718aa0d76cffdf7c2fb'),
        't3': (0, 'fc571fe6fd559fcf179b088a6446651684e7ebebaa731b59aebf515df08a7f22'),
        't3-rational': (0, '0f0ea2e5df645b0f699b6bec8e5e5ceabdd8fae8ca023347277e002c27ba7d9d'),
    },
    'cross5': {
        'analyze-gf2': (0, '4ee0f881f7a9022777665d9ad067c3fe3a353face041de93457c88866da35311'),
        'analyze-gf3': (0, '7892593ce76f14e3126c3ac5307124e40848c4f9c29c1f5c4a490341adafbc6f'),
        'analyze-rational': (0, '4c052616e1a720658ce0b0adca774d3aa338358a2bd3027e13e1afef1dbed55a'),
        't3': (0, '297e7d53ef128c6c1e53d76c333f5ce1626560911bf036a3200d470f0f836660'),
        't3-rational': (0, '20bd45175bdd79159f4a56faa61d36b6c0cb3e1fb0bf1b34a9244a5e3f1bb3b3'),
    },
    'icosahedron': {
        'analyze-gf2': (0, '5dfed99b2d25c5c241d031dce63aa0d6c8e45025a96bba4d86151312a8e4654a'),
        'analyze-gf3': (0, '3cb943276e5db1d877fe3184eb251e2d6ac06d58b492a8d63bdb2e0589c4708a'),
        'analyze-rational': (0, '08b886d197f30cccfa9af1fe353f1fcbef04679ee5fc4f62c513a28571192485'),
        't3': (0, 'eeca961bec34736c396194bd082214627c31fc7be3b3f5058a6af3e3199d2fa8'),
        't3-rational': (0, '04a666d4292a1d342cf2d6c85b7b5cad9557d8ecbb5f955bc2661024cea9b014'),
    },
    'torus7': {
        'analyze-gf2': (0, '40669a79e3bf6c3684cf1387436061eedf618af5a097ee146e243c60b3fddc75'),
        'analyze-gf3': (0, '56467ee02c2aa0d91ee58b94241bdf5810b88d0fd80af23ee83f286629839fd1'),
        'analyze-rational': (0, '31e3fc6e971accc312a4434bde15f46b2139e7c11813bf6032efe6ab8d8c4694'),
        't3': (4, 'bd0503ee2c2f9e719ca5389bc529f3e5ea97bd8f331bbce943f05685d1b0f230'),
        't3-rational': (4, '8f9ef66f967739fd67f044012760777b11a014098eb5839e4b6851330c2d4cb7'),
    },
    'simplex_bd3': {
        'analyze-gf2': (0, 'a52bc74267ae4edf138591225fe28708ef0717a27683c71ab3f1b7b471a86628'),
        'analyze-gf3': (0, '53f466e6f91a534eda6ef82146debea4704b60d9669ec36445105f70f6bea619'),
        'analyze-rational': (0, 'ba8dbb2bb7c3dde475b0a48cd8560523838edd884c2bdcf9352c3882850adf1c'),
        't3': (4, '47f1d4423d05cec40d5855da7aa0625c8970caa7b6a12caf6faa830b4141e2e1'),
        't3-rational': (4, 'f89b2b5258e0cd2c4ee896004a321add1fcf1bb6c866f9f345a4d73a17431e59'),
    },
    'bary_tetra': {
        'analyze-gf2': (0, 'ea3ba1ec07c4b0f7035f02491cbd2d2fcd24b716a5665e4f7753bdaa7b999d53'),
        'analyze-gf3': (0, 'f79b1f1a1fad3ae52ae1e4685b9c487d784d4902e0501458a3d70ced4d7db6b6'),
        'analyze-rational': (0, 'f3a2e1dfab36e5d834721ef89846c9566215a2126eee2297e99c80ae8a602639'),
        't3': (0, '53a225ec0b5b92c46d94ec865d22a9424f44786df993e40650001fc1fbd1dcd0'),
        't3-rational': (0, 'abfba821ee1734e163bdc1d00fa6430c491f0b297b21bdbddc1a1259c5504c1f'),
    },
    'bary_octa': {
        'analyze-gf2': (0, '467cd81d46edfbbc3c7daf88f124c97374bf638de6ab3d8398a0d0bdcf7d27fb'),
        'analyze-gf3': (0, 'b10ec0f44a2f0b1adeae2d5ebac0e53540595f86002149198e755dfa333f01ec'),
        'analyze-rational': (0, '0a473ae2e251d2f7f8aef43af7328119c1ab0842fa41658c59baa83431c5ef16'),
        't3': (0, 'c7d3d16ad0faf47addcd28f67f0d42fe5cbe2fb72f080cb8e887764d7eb17863'),
        't3-rational': (0, '1bf5ee3f85f4907b278f9cb17b0508c6dd245d01c658b66b153141c806d80724'),
    },
    'hexagon': {
        'analyze-gf2': (0, '56cc2bb75c280c615403bc2114d31ecc746e3169f28359f66fd37cd93e7b7d86'),
        'analyze-gf3': (0, '313b98e8864c843493a73c784030d12d750aa658b420156d42eda98e01cf1f1e'),
        'analyze-rational': (0, '7740f24383e37a57cd7f26de8f70c230798d359ae9ccf1eb9831eb60c4693f3a'),
        't3': (0, '9fe1546d8ef6d3ab1367b4ae5cb84348806f66b10534eacdc953232ac7b34255'),
        't3-rational': (0, 'e45e4ac46a2bab2dddd7baaa172a56e825a2f5f371a4ed7b86077ba88f54bb43'),
    },
    'books': {
        'analyze-gf2': (0, 'aad5404368f35ce251a947fcf98c107f8d5c83c94a5f94affdefeae657261c95'),
        'analyze-gf3': (0, 'fd84f03a9ff53adfd7e3878899f6f6156170b11118bc582a0f07f4c6cf4ff304'),
        'analyze-rational': (0, '2cb267c2d8b81cafa8085be5643e5de10947d209c2206a46dd5b5236723eef35'),
        't3': (4, 'cab6ec83fdebb733117facc4cdb0345d16347851dbcdc42bae0b62bfade51547'),
        't3-rational': (4, '2b326889b596a15f5e69b0ec5f40f69dc15932420f4883d46122b58b7fb6ca11'),
    },
    'path': {
        'analyze-gf2': (0, '0d3ff61be09a0cb47a0fabb0ec47edc11222a9940d52d345cd675e0141ad7ef4'),
        'analyze-gf3': (0, 'd69e579423bfba3d0166a577f892cb4740ebeb2df34345f35756bf2741bbff61'),
        'analyze-rational': (0, '885a90545724c8aba5394a6a7f4c0d806bea67ec3815df0088f3567e37a855c0'),
        't3': (4, 'be363dc5b67d558e9935a82e16064d701b58d1ce04329ea6fd7079b02cbb99f4'),
        't3-rational': (4, '571b7a5f013b0d4be9ff39a7c517a290171c201f6f5bbd939cec607e0f89662c'),
    },
    'two_triangles': {
        'analyze-gf2': (0, '0256cd7a0b97329b87b24fcd9f3406b847fdd2271e9cd33a180980f921101f80'),
        'analyze-gf3': (0, '5bca5a1303614ce7669ad32c3a51f702e51b79a833bc83bb191511fc030f81b8'),
        'analyze-rational': (0, 'ab85bbaeb08a4c8b5a1817b62a46eaf4d2752728f97387773ad6e24eb0af814b'),
        't3': (4, 'efa0c24417a3af78ebdd3bcd31e27a4365efbf3eba6da5da62326cc62930dada'),
        't3-rational': (4, '31bb8f1ca2af9397a5ab1ee50593ed448fe4462cae1a184934d4d1cfa5add925'),
    },
    'rp2': {
        'analyze-gf2': (0, '8a4ffe699d4379afafd2661a2394486c538936386dc21fad364e698b95dce36a'),
        'analyze-gf3': (0, '35879864d883c346e292fd095922d47d1ffe0f1df44dde15bd7a026d20c34034'),
        'analyze-rational': (0, '5acfdd8d2aad9e1dd194e4e7be34c0aa992ab198d4518f1a3ba589a37c057a71'),
        't3': (4, '9a1116e4df6f7ea80a7ef7f734bc403aaa03ef0ac859ccc9c26618f28b237ed6'),
        't3-rational': (4, 'a43fa0431890108b92be8ef4c514ea5e99deb1f48de29460d30f6ffa40c95772'),
    },
    'cone_octa': {
        'analyze-gf2': (0, '2c65ab33cca8354e1e46b28efdae491fe620fb50698198e417bf497459fcc8b7'),
        'analyze-gf3': (0, '90cb8e30ae01f5dcaa79aadfd482710c953a930ef9b880da50fa3a545480729d'),
        'analyze-rational': (0, 'ba22dbe1ed44f74140a082ee9307586f9f402f2aa5dee1f0480bcfeb37d171d1'),
        't3': (4, 'cca8000481a130a621f7a5e4cacfed202e8626a113cb59fa12b7c9d3b8af699a'),
        't3-rational': (4, 'd7642bf6ac1ac444e8300686fd4bd3ac5b5cfab39cf26e7f776e6652326f01d0'),
    },
    'octa_minus_facet': {
        'analyze-gf2': (0, '3b55e74165885918f9f5447b21dbb9b4f01f9c33465b59e1af8e48d153b6d81c'),
        'analyze-gf3': (0, '3f0164f69b721b87014ee2197574b5c65cd9b9d6d1c53378981ad9ed82a7b0af'),
        'analyze-rational': (0, 'fb675572e566581f26ff066b00010c7999b51e22a07ea1d9d2c82335957683fc'),
        't3': (4, 'a8c44b8c7fd6ca756910046e1d4f599e2f5fefefabc78e6a43f5320e2cb4c66b'),
        't3-rational': (4, '28f0184f136a57dc31f91ca5f46db483165eaa3501bf52c475e38b4e2ed985dc'),
    },
}


@pytest.mark.parametrize("name", HOMOLOGY_INSTANCES)
def test_homology_reports_match_golden_digests(name, corpus, tmp_path):
    cx = _homology_instance(name, corpus)
    got = _digests(cx, str(tmp_path / f"{name}.txt"), _homology_commands)
    assert got == GOLDEN_HOMOLOGY[name]


def _relabelled(cx, k, p):
    """cx with vertex v renamed k * v mod p (p a prime above every label)."""
    return build_complex([[k * v % p for v in f] for f in cx.facets])


# larger relabelled instances, where the facet order differs from the label
# order of the generator and breadth-first ties between facets are common
WALK_INSTANCES = {
    "bary_cross4_relabelled": lambda: _relabelled(
        barycentric_subdivision(cross_polytope_boundary(4)), 37, 83),
    "bary_torus7_relabelled": lambda: _relabelled(
        barycentric_subdivision(torus_7()), 11, 43),
}


def _seeded_walk_commands(seed, runs=6):
    """runs face- and runs flag-mode walks with endpoints and avoided sets
    drawn from random.Random(seed).  A face walk avoids either a face of a
    facet that misses both endpoints or fewer labels than a facet has; a
    flag walk avoids 2d - 3 labels, every other time all of them neighbours
    of its first endpoint."""

    def commands(cx, path):
        rng = random.Random(seed)
        vs = cx.vertices
        d = cx.dimension + 1
        edges = set(cx.faces(1))
        out = {}
        for i in range(runs):
            a, b = rng.sample(vs, 2)
            if i % 2:
                avoid = rng.sample([v for v in vs if v not in (a, b)], d - 1)
            else:
                f = rng.choice([f for f in cx.facets if a not in f and b not in f])
                avoid = rng.sample(f, rng.randint(1, d))
            out[f"walk-face-{i}"] = [
                "walk", path, "--from", str(a), "--to", str(b),
                "--avoid", ",".join(map(str, avoid)), "--mode", "face",
            ]
        for i in range(runs):
            a, b = rng.sample(vs, 2)
            # odd runs avoid neighbours of a, so the walk must reroute
            pool = [v for v in vs if v not in (a, b)]
            if i % 2:
                pool = [v for v in pool if (a, v) in edges or (v, a) in edges]
            avoid = rng.sample(pool, min(len(pool), 2 * d - 3))
            out[f"walk-flag-{i}"] = [
                "walk", path, "--from", str(a), "--to", str(b),
                "--avoid", ",".join(map(str, avoid)), "--mode", "flag",
            ]
        return out

    return commands


# recorded before strong components, the face walk and link components
# shared one facet search
GOLDEN_WALKS = {
    'bary_cross4_relabelled': {
        'walk-face-0': (0, '734ed0790d157b295845923e05101dadefbe6e1d53aa252ef9aaebdd72b63a46'),
        'walk-face-1': (0, 'a3118eed629ce3c185660032c4ad482f4d9f3d3856701a72cb64602ecbb39fd5'),
        'walk-face-2': (0, '7fa502e87be4edfe5049396143eab65793bb7aff4488a61cef696aa15c6ffc48'),
        'walk-face-3': (0, '3050bbe6a82c675beb697cc715fce775278f402f1cfe33cca76e5320aed17d2b'),
        'walk-face-4': (0, 'c13e992ee5600c077868722efe08feb8a7cae9951d5aa90fe2be20cba3dcab1d'),
        'walk-face-5': (0, '6714112f1d7130e44d22cb19a25afc03addbdd30ade441a3e5c0b570a7409feb'),
        'walk-flag-0': (0, '4d73564cc9d485656282a8d72e068b4b005257d6e04a0113b34dd1c9b7a078fd'),
        'walk-flag-1': (0, '70dfb62c93d81ed53f0b0278b4c64cb79b4912dc0b7915ef632c1cc25b9b61f5'),
        'walk-flag-2': (0, 'f7b1ab948c8d3678c2045408a1461ce5db75e3dd71be5e34e0a8b3fa8908ed0e'),
        'walk-flag-3': (0, '16ef700fbf4883beb2aad44596a743bda75f2315a09d4bb6e5dd0bc2620bd5bf'),
        'walk-flag-4': (0, 'ce1706b33b8c0418552cb0bc10b5190ddeac0cf5116a86c836f688681538a7f7'),
        'walk-flag-5': (0, 'e93d338d33d3121c5306ebc43567499f6b2238c249c69d3097254b81f4219b68'),
    },
    'bary_torus7_relabelled': {
        'walk-face-0': (0, '5199690e646cb91a62004120c69e42af89b674dd5fbe07f6bf2fc4895c78c7f4'),
        'walk-face-1': (0, 'db26368d052a9dc176fc9c1189632627b695143a844570ddcd3a137191fd6559'),
        'walk-face-2': (0, '9056a399c30fe971b669bcf881b167214350998ad29a2e193af71b6aa3a3c6c4'),
        'walk-face-3': (0, '4271cc26408da6c585839b6619d8522fa84645834308e17fd68e34cce5c64ec2'),
        'walk-face-4': (0, 'e68876098b097db28d0667114420e57bb7ee53af39917769604365968ec4920b'),
        'walk-face-5': (0, '3368e1db37c66c7e009c3cc40e6138bebc963c84721d6a2b25ea83dccd24f631'),
        'walk-flag-0': (0, 'f83af662eb535347c3ee8b14a994b2d81f69079a6296a2c207a8fcdc2a5a6685'),
        'walk-flag-1': (0, '872ea2363682a1e139a3b2db2f58d16426b7f983b899c0657108d79fd2b6617e'),
        'walk-flag-2': (0, '31d72a8e9c1a0fc3cc7eef0a5d7915d9e2769230dc9d0dda656162351a96616a'),
        'walk-flag-3': (0, 'c90aa8fb729c2ba2310b0bd45df21d0ea877ee8bc1cba392e4c3b6f258d98f5f'),
        'walk-flag-4': (0, '6b27555897055ece339185f2370ca60ea8336849544de50a32a3c76486eb53b1'),
        'walk-flag-5': (0, '188ccdc639837c31de3701553f95c1328915ab0b62897bc977769546c2cca5b1'),
    },
}


@pytest.mark.parametrize("name", sorted(WALK_INSTANCES))
def test_seeded_walk_reports_match_golden_digests(name, tmp_path):
    cx = WALK_INSTANCES[name]()
    got = _digests(cx, str(tmp_path / f"{name}.txt"), _seeded_walk_commands(14))
    assert got == GOLDEN_WALKS[name]
