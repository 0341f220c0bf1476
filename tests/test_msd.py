"""Tests for the mass-spring-damper benchmark builder."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from second_order import affine_at, corner_definiteness_check
from sgmor.galerkin import ParametricSecondOrderSystem
from sgmor.msd import MsdConfig, build_msd, config_from_dict, default_config


def two_mass_config():
    """Small chain with a hand-checkable assembly."""
    return MsdConfig(
        masses=(2.0, 3.0),
        springs=((0, 1, 10.0), (1, 2, 5.0)),
        dampers=((1, 2, 0.5),),
        input_spring=1,
        delta=0.2,
    )


class TestConfig:
    def test_default_shape(self):
        cfg = default_config()
        assert cfg.n == 4, f"default chain should have 4 masses, got {cfg.n}"
        assert len(cfg.springs) == 6 and len(cfg.dampers) == 4
        assert cfg.q == 14, f"expected 14 parameters, got {cfg.q}"
        assert cfg.delta == 0.10
        a, b, _ = cfg.springs[cfg.input_spring - 1]
        assert a == 0 or b == 0, "default input spring must touch the ground"

    def test_rejects_empty_masses(self):
        with pytest.raises(ValueError, match="at least one mass"):
            MsdConfig(masses=(), springs=(), dampers=(), input_spring=1)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="masses must be positive"):
            MsdConfig(masses=(1.0, -2.0))
        with pytest.raises(ValueError, match="spring values must be positive"):
            MsdConfig(springs=((0, 1, 0.0),), input_spring=1)
        with pytest.raises(ValueError, match="damper values must be positive"):
            MsdConfig(dampers=((1, 2, -0.1),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            MsdConfig(masses=(1.0, bad))
        with pytest.raises(ValueError, match="spring values must be positive and finite"):
            MsdConfig(springs=((0, 1, bad),), input_spring=1)
        with pytest.raises(ValueError, match="damper values must be positive and finite"):
            MsdConfig(dampers=((1, 2, bad),))

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError, match="endpoint out of range"):
            MsdConfig(masses=(1.0,), springs=((0, 2, 1.0),), dampers=(), input_spring=1)
        with pytest.raises(ValueError, match="distinct endpoints"):
            MsdConfig(masses=(1.0,), springs=((1, 1, 1.0),), dampers=(), input_spring=1)

    def test_rejects_ungrounded_mass(self):
        # masses 2 and 3 hang together but off the ground: K is exactly singular
        with pytest.raises(ValueError, match="mass 2 has no spring path to the ground"):
            MsdConfig(masses=(1.0, 1.0, 1.0), springs=((0, 1, 1.0), (2, 3, 1.0)), dampers=(), input_spring=1)
        # a damper is no path to the ground
        with pytest.raises(ValueError, match="mass 2 has no spring path"):
            MsdConfig(masses=(1.0, 1.0), springs=((0, 1, 1.0),), dampers=((2, 0, 1.0),), input_spring=1)
        # a path through other masses is enough
        MsdConfig(masses=(1.0, 1.0, 1.0), springs=((0, 2, 1.0), (3, 1, 1.0), (2, 1, 1.0)), dampers=(), input_spring=1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            MsdConfig(delta=1.0)
        with pytest.raises(ValueError, match="delta"):
            MsdConfig(delta=-0.1)

    def test_rejects_bad_input_spring(self):
        with pytest.raises(ValueError, match="input_spring"):
            MsdConfig(input_spring=7)
        with pytest.raises(ValueError, match="input_spring"):
            MsdConfig(input_spring=0)
        # spring 2 of the default chain connects masses 1 and 2, not the ground
        with pytest.raises(ValueError, match="ground endpoint"):
            MsdConfig(input_spring=2)


class TestDictAndFile:
    def make_raw(self):
        return {
            "masses": [2.0, 3.0],
            "springs": [
                {"ends": [0, 1], "stiffness": 10.0},
                {"ends": [1, 2], "stiffness": 5.0},
            ],
            "dampers": [{"ends": [1, 2], "coefficient": 0.5}],
            "input_spring": 1,
            "delta": 0.2,
        }

    def test_from_dict_matches_direct_construction(self):
        cfg = config_from_dict(self.make_raw())
        assert cfg == two_mass_config(), f"dict parse mismatch: {cfg}"

    def test_ground_attachment_shorthand(self):
        raw = self.make_raw()
        raw["dampers"] = [{"mass": 2, "coefficient": 0.5}]
        cfg = config_from_dict(raw)
        assert cfg.dampers == ((2, 0, 0.5),), f"got {cfg.dampers}"

    def test_defaults_for_optional_keys(self):
        raw = self.make_raw()
        del raw["input_spring"]
        del raw["delta"]
        cfg = config_from_dict(raw)
        assert cfg.input_spring == 1
        assert cfg.delta == 0.10


class TestBuild:
    def test_two_mass_hand_assembly(self):
        sys = build_msd(two_mass_config())
        assert sys.n == 2 and sys.q == 5
        # nominal matrices of the 2-mass chain
        assert_allclose(sys.M_terms[0], np.diag([2.0, 3.0]))
        assert_allclose(sys.K_terms[0], np.array([[15.0, -5.0], [-5.0, 5.0]]))
        assert_allclose(sys.D_terms[0], np.array([[0.5, -0.5], [-0.5, 0.5]]))
        # parameter order: masses (1, 2), springs (3, 4), damper (5)
        assert_allclose(sys.M_terms[1], np.diag([0.4, 0.0]))
        assert_allclose(sys.M_terms[2], np.diag([0.0, 0.6]))
        assert_allclose(sys.K_terms[3], np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert_allclose(sys.K_terms[4], np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert_allclose(sys.D_terms[5], 0.1 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert_allclose(sys.B, np.array([[10.0], [0.0]]))

    def test_each_parameter_in_one_family(self):
        cfg = default_config()
        sys = build_msd(cfg)
        n_m, n_s = len(cfg.masses), len(cfg.springs)
        for k in range(1, sys.q + 1):
            hits = [
                np.any(family[k] != 0.0)
                for family in (sys.M_terms, sys.D_terms, sys.K_terms)
            ]
            assert sum(hits) == 1, f"parameter {k} appears in {sum(hits)} families"
            if k <= n_m:
                assert hits[0], f"parameter {k} should be a mass"
            elif k <= n_m + n_s:
                assert hits[2], f"parameter {k} should be a spring"
            else:
                assert hits[1], f"parameter {k} should be a damper"

    def test_default_input_vector(self):
        cfg = default_config()
        sys = build_msd(cfg)
        a, b, stiffness = cfg.springs[cfg.input_spring - 1]
        driven = (a if a > 0 else b) - 1
        expected = np.zeros((cfg.n, 1))
        expected[driven, 0] = stiffness
        assert_allclose(sys.B, expected, err_msg=f"B = {sys.B.ravel()}")

    def test_affine_scaling_with_delta(self):
        cfg = two_mass_config()
        sys = build_msd(cfg)
        # evaluating at a corner equals scaling every nominal element by 1 + delta
        mu = np.ones(cfg.q)
        assert_allclose(affine_at(sys.M_terms, mu), 1.2 * sys.M_terms[0], atol=1e-14)
        assert_allclose(affine_at(sys.K_terms, mu), 1.2 * sys.K_terms[0], atol=1e-14)
        assert_allclose(affine_at(sys.D_terms, mu), 1.2 * sys.D_terms[0], atol=1e-14)

    def test_zero_delta_kills_parametric_terms(self):
        cfg = MsdConfig(delta=0.0)
        sys = build_msd(cfg)
        for k in range(1, sys.q + 1):
            for family in (sys.M_terms, sys.D_terms, sys.K_terms):
                assert not np.any(family[k]), f"term {k} should vanish at delta=0"

    def test_symmetry_and_mass_diagonality(self):
        sys = build_msd(default_config())
        for family in (sys.M_terms, sys.D_terms, sys.K_terms):
            for term in family:
                assert_allclose(term, term.T, atol=0.0)
        for term in sys.M_terms:
            assert_allclose(term, np.diag(np.diag(term)), atol=0.0)


class TestCornerCheck:
    def test_default_benchmark_is_definite(self):
        assert corner_definiteness_check(build_msd(default_config()))

    def test_two_mass_chain_is_definite(self):
        assert corner_definiteness_check(build_msd(two_mass_config()))

    def test_detects_indefinite_corner(self):
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        # K flips sign at mu = -1 because the variation dominates the nominal
        sys = ParametricSecondOrderSystem(
            M_terms=(eye, zero),
            D_terms=(eye, zero),
            K_terms=(eye, 2.0 * eye),
            B=np.array([[1.0], [0.0]]),
        )
        assert not corner_definiteness_check(sys)

    def test_zero_damping_passes_semidefinite_clause(self):
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        sys = ParametricSecondOrderSystem(
            M_terms=(eye, zero),
            D_terms=(zero, zero),
            K_terms=(eye, 0.5 * eye),
            B=np.array([[1.0], [0.0]]),
        )
        assert corner_definiteness_check(sys)

    def test_sampled_branch_agrees_with_exhaustive(self):
        sys = build_msd(two_mass_config())
        exhaustive = corner_definiteness_check(sys)
        sampled = corner_definiteness_check(sys, max_exhaustive_q=2, samples=256)
        assert sampled == exhaustive, "sampled corner check disagrees"
