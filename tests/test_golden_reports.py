"""Golden digests of CLI reports on the corpus pseudomanifolds.

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
from contextlib import redirect_stderr, redirect_stdout

import pytest

import simplicial.cli as cli
from simplicial import (
    barycentric_subdivision,
    build_complex,
    cross_polytope_boundary,
    facet_file_text,
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
