"""The package's value records: field order, construction, validation,
immutability, and equality and hashing by fields."""

import math
import re

import numpy as np
import pytest

from skeinquant import (BraidWord, JonesValue, KirbyConstants, KnotPresentation,
                        KnotState, L2Norm, LinkDiagram, MappingClassWord, ModularReport,
                        QuantizationContext, RootContext, TorusVector, VolumeRow)

TREFOIL = KnotPresentation("trefoil", BraidWord((1, 1, 1), 2))
MEASURED, PREDICTED = np.eye(2), np.ones((2, 2))

# record -> (fields in order with valid values, whether hashable, [(bad args, ValueError message)])
RECORDS = {
    BraidWord: ({"word": (1, -2), "strands": 3}, True, [
        (((1,), 0), "need at least one strand"),
        (((2,), 2), "generator 2 out of range for 2 strands"),
    ]),
    LinkDiagram: ({"crossings": [(1, 2, 2, 1)], "free_loops": 1}, False, [
        (([(1, 2, 3)],), "crossing (1, 2, 3) must list exactly four arcs"),
        (([(1, 2, 3, 5)],), "arcs with occurrence != 2: {1: 1, 2: 1, 3: 1, 5: 1}"),
    ]),
    QuantizationContext: ({"r": 3, "tau": 0.3 + 1.7j}, True, [
        ((2, 1j), "level r must be >= 3"),
        ((3, complex(math.inf, 1)), "tau must be finite, not (inf+1j)"),
        ((3, -1j), "tau must lie in the upper half plane"),
    ]),
    ModularReport: ({"gen": "S", "measured": MEASURED, "predicted": PREDICTED,
                     "global_phase": 1j, "max_dev": 1e-15}, False, []),
    KnotPresentation: ({"name": "trefoil", "braid": BraidWord((1, 1, 1), 2)}, True, [
        (("split", BraidWord((), 2)),
         "braid closure has 2 components; a knot needs exactly one"),
    ]),
    JonesValue: ({"n": 2, "value": 0.5 - 1j, "backend": "catalog"}, True, []),
    KnotState: ({"knot": TREFOIL, "r": 3, "coeffs": TorusVector(3, (1, 2j, 0)),
                 "norm": L2Norm(5.0, math.sqrt(5.0), math.log(5.0), 2)}, True, []),
    L2Norm: ({"norm_sq": 4.0, "norm": 2.0, "log_norm_sq": math.log(4.0), "argmax_n": 3},
             True, []),
    VolumeRow: ({"r": 40, "norm_sq": 27.0, "v_r": 0.25, "argmax_n": 40, "ref_vol": 0.0,
                 "rel_err": 0.25}, True, []),
    RootContext: ({"r": 5}, True, [((2,), "level r must be >= 3")]),
    TorusVector: ({"r": 2, "coeffs": (1 + 0j, 2j)}, True, [
        ((3, (1, 2)), "need 3 coefficients, got 2"),
    ]),
    MappingClassWord: ({"word": ("S", "T^-1")}, True, [(("X",), "unknown generator 'X'")]),
    KirbyConstants: ({"r": 3, "eta": 0.5, "kappa": 1 + 1j, "omega_coeffs": (1.0, -1.7, 1.2)},
                     True, []),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_equality_immutability_and_checks(cls):
    fields, hashable, bad = RECORDS[cls]
    a, b = cls(*fields.values()), cls(**fields)
    # positional and keyword construction agree, and the fields read back in order
    assert [getattr(a, k) for k in fields] == list(fields.values())
    assert a == b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        a.extra = 1
    for args, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*args)
