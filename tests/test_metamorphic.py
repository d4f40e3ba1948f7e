"""Metamorphic relations of the CLI, through ``cli.main``.

Each relation rewrites a manifest without changing the loop it describes,
or changes the loop in a known way, and compares the answers. Manifests
come from ``gen_random_flow`` seeds and twist-family members, written with
``dumps_manifest``:

* rotating the loop leaves ``rw``'s spirality unchanged;
* reversing the loop and flipping every ``from_side`` inverts it;
* flipping every ``from_side`` and passing ``--side-convention from-enters``
  leaves every command's output unchanged but for the digest.
"""

import json

import pytest

from spirality import (Crossing, LoopItinerary, TwistFamilyParams, dumps_manifest,
                       gen_random_flow, gen_twist_family, parse_rational)
from spirality.cli import main
from spirality.manifest import FdtcInput
from util import reverse_itinerary

_TWISTS = [TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1, d=3),
           TwistFamilyParams(k=2, p=2, q=1, r_minus=3, r_plus=1, d=2),
           TwistFamilyParams(k=-1, p=1, q=2, r_minus=1, r_plus=2)]
CASES = [pytest.param(seed, id="random-%d" % seed) for seed in range(12)] + [
    pytest.param(params, id="twist-%d" % i) for i, params in enumerate(_TWISTS)]


def sections(case):
    """A case's manifest sections: a random flow, or a twist member with its
    fdtc data."""
    if isinstance(case, int):
        m, loop = gen_random_flow(case)
        return {"flow_manifest": m, "loop": loop}
    inst = gen_twist_family(case)
    return {"flow_manifest": inst.manifest, "loop": inst.loop,
            "fdtc": FdtcInput(inst.l_plus, inst.l_minus, inst.reduction_curve, 1)}


def with_loop(case_sections, crossings):
    return dict(case_sections, loop=LoopItinerary(tuple(crossings)))


def flipped(loop):
    return [Crossing(c.torus, c.curve, c.from_side.other) for c in loop.crossings]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spirality(capsys, tmp_path, manifest_sections):
    path = tmp_path / "m.json"
    path.write_text(dumps_manifest(**manifest_sections), encoding="utf-8")
    code, out, err = run(capsys, "rw", str(path))
    assert code == 0, err
    (value,) = [line[len("spirality: "):] for line in out.splitlines()
                if line.startswith("spirality: ")]
    return parse_rational(value)


@pytest.mark.parametrize("case", CASES)
def test_rotating_the_loop_leaves_the_spirality(capsys, tmp_path, case):
    base = sections(case)
    crossings = base["loop"].crossings
    want = spirality(capsys, tmp_path, base)
    for k in sorted({1, len(crossings) // 2, len(crossings) - 1} - {0}):
        rotated = with_loop(base, crossings[k:] + crossings[:k])
        assert spirality(capsys, tmp_path, rotated) == want, k


@pytest.mark.parametrize("case", CASES)
def test_reversing_the_loop_inverts_the_spirality(capsys, tmp_path, case):
    base = sections(case)
    reverse = dict(base, loop=reverse_itinerary(base["loop"]))
    assert spirality(capsys, tmp_path, reverse) == 1 / spirality(capsys, tmp_path, base)


def _without_digest(out, fmt):
    if fmt == "structured":
        report = json.loads(out)
        del report["digest"]
        return report
    return [line for line in out.splitlines() if not line.startswith("digest: ")]


@pytest.mark.parametrize("case", CASES[:6] + CASES[-2:])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_the_side_convention_undoes_flipped_sides(capsys, tmp_path, monkeypatch, case, fmt):
    base = sections(case)
    # crosscheck labels its rows by path, so both files go by one name
    for name, manifest_sections in (("leaves", base),
                                    ("enters", with_loop(base, flipped(base["loop"])))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "m.json").write_text(dumps_manifest(**manifest_sections),
                                                encoding="utf-8")
    for command in ("validate", "rw", "aspiral", "fdtc", "crosscheck"):
        outcomes = []
        for name, convention in (("leaves", "from-leaves"), ("enters", "from-enters")):
            monkeypatch.chdir(tmp_path / name)
            code, out, err = run(capsys, command, "--format", fmt,
                                 "--side-convention", convention, "m.json")
            outcomes.append((code, _without_digest(out, fmt) if out else out, err))
        assert outcomes[0] == outcomes[1], command
