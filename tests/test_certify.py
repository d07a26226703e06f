"""Certificate logic tests on hand-built sequences."""

import numpy as np
import pytest

from ddehist.certify import (
    GapTable,
    RemainderTable,
    certify_decay,
    halving,
)


class TestCertifyDecay:
    def test_quadratic_remainder_ratios_pass(self):
        # Ratios 2^-k: monotone from the start, final/initial = 2^-12.
        cert = certify_decay(0.5 ** np.arange(13))
        assert cert.passed
        assert cert.tail_start == 0
        assert cert.final_over_initial == pytest.approx(2.0**-12)

    def test_constant_ratios_fail_the_final_test(self):
        cert = certify_decay(np.full(13, 0.5))
        assert not cert.passed
        assert "final/initial" in cert.reason

    def test_late_bump_breaks_monotonicity(self):
        v = 0.5 ** np.arange(13.0)
        v[10] = 1.0
        cert = certify_decay(v)
        assert not cert.passed
        assert cert.tail_start == -1

    def test_early_wiggle_is_forgiven(self):
        # A noisy head is fine as long as some tail in the first half decays.
        v = 0.5 ** np.arange(13.0)
        v[1] = 2.0
        assert certify_decay(v).passed

    def test_pre_asymptotic_rise_is_measured_from_the_peak(self):
        # A correct O(h) ratio table whose first row sits below the peak:
        # final/initial is above 1e-3, but the table halves from its peak.
        v = 0.3 * 0.5 ** np.arange(13.0)
        v[0] = 0.05
        cert = certify_decay(v)
        assert cert.final_over_initial > 1e-3
        assert cert.passed
        # Halving from row 1 and from row 6 both beat the rate 1e-3^(1/12);
        # the second half, 2^-6 against 1e-3^(6/12), is closer to the limit.
        assert cert.reference_row == 6
        assert cert.final_limit == pytest.approx(1e-3**0.5)
        assert cert.final_over_reference == pytest.approx(2.0**-6)

    def test_zero_first_entry_reads_as_a_zero_initial_ratio(self):
        # A table that starts at 0 and peaks at row 1: the reason reports
        # final/initial as final_over_initial does, without dividing by 0.
        cert = certify_decay([0.0, 1.0, 0.5, 0.25, 0.1, 1e-5, 1e-9])
        assert cert.passed
        assert cert.final_over_initial == 0.0
        assert "final/initial = 0.000e+00" in cert.reason
        assert "inf" not in cert.reason

    def test_limit_is_scaled_to_the_rows_after_the_peak(self):
        # Shaped like the saturating remainder ratios of seeds 1851 and 4263
        # in test_derivops: peak at row 1, a slow start, then exact halving.
        # final/peak is just above 1e-3, within 1e-3^(11/12).
        v = np.concatenate([[0.046, 0.146, 0.132, 0.076], 0.039 * 0.5 ** np.arange(9.0)])
        cert = certify_decay(v)
        assert cert.reference_row == 1
        assert cert.final_limit == pytest.approx(1e-3 ** (11.0 / 12.0))
        assert 1e-3 < cert.final_over_reference < cert.final_limit
        assert cert.passed

    def test_slow_second_half_fails(self):
        # Halves from its peak for five rows, then falls by only 0.6 per row:
        # final/peak is within its limit, but the second half is too slow.
        v = 0.3 * 0.5 ** np.arange(13.0)
        v[0] = 0.05
        v[7:] = v[6] * 0.6 ** np.arange(1.0, 7.0)
        assert v[-1] / v[1] < 1e-3 ** (11.0 / 12.0)
        cert = certify_decay(v)
        assert not cert.passed
        assert cert.reference_row == 6
        assert cert.final_over_reference == pytest.approx(0.6**6)
        assert "second half" in cert.reason

    def test_plateau_after_a_fast_drop_fails_the_second_half_test(self):
        # Falls by 1e4 at once, then levels off: the signature of a nonzero
        # limit, which final/initial alone would accept.
        v = np.concatenate([[1.0], np.full(12, 1e-4)])
        cert = certify_decay(v)
        assert cert.final_over_initial <= 1e-3
        assert not cert.passed
        assert "second half" in cert.reason

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 3.5])
    def test_geometric_sequences_are_judged_by_their_rate(self, p):
        # Indicator gaps (2 / 4^k)^(1/p) fall by 2^(-2/p) per row; over the
        # discontinuity experiment's default ceil(5p) halvings the total fall
        # is at most 2^-10 <= 1e-3, whatever the order 2/p per row.
        count = max(12, int(np.ceil(5.0 * p)))
        gaps = (2.0 / 4.0 ** np.arange(count + 1.0)) ** (1.0 / p)
        assert certify_decay(gaps).passed
        # One row fewer: the verdict is that of "final <= 1e-3 * first".
        shorter = certify_decay(gaps[:-1])
        assert shorter.passed == (gaps[-2] <= 1e-3 * gaps[0])

    def test_noise_floor_absorbs_bouncing_tiny_values(self):
        v = np.concatenate([0.5 ** np.arange(9.0), [1e-15, 1e-16, 1e-14, 1e-15]])
        cert = certify_decay(v)
        assert cert.passed

    def test_all_noise_passes_trivially(self):
        cert = certify_decay(np.full(6, 1e-14))
        assert cert.passed
        assert "noise floor" in cert.reason

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            certify_decay([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            certify_decay([1.0, -0.5, 0.25, 0.1])
        with pytest.raises(ValueError):
            certify_decay([1.0, np.nan, 0.25, 0.1])


class TestTables:
    def test_remainder_table_ratios_and_certificate(self):
        scales = 0.5 ** np.arange(13)
        table = RemainderTable(scales, scales**2)
        np.testing.assert_allclose(table.ratios, scales)
        assert table.certificate().passed
        rows = table.as_rows()
        assert len(rows) == 13
        assert rows[3] == pytest.approx((0.125, 0.015625, 0.125))

    def test_remainder_table_requires_decreasing_scales(self):
        with pytest.raises(ValueError):
            RemainderTable(np.array([1.0, 1.0, 0.5]), np.zeros(3))
        with pytest.raises(ValueError):
            RemainderTable(np.array([0.5, 1.0]), np.zeros(2))

    def test_gap_table_certifies_output_gaps(self):
        ins = 0.5 ** np.arange(13)
        table = GapTable(ins, 3.0 * ins)
        assert table.certificate().passed
        stalled = GapTable(ins, np.full(13, 0.2))
        assert not stalled.certificate().passed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GapTable(np.array([1.0, 0.5]), np.array([1.0]))


def test_halving_schedule():
    np.testing.assert_allclose(halving(4), [1.0, 0.5, 0.25, 0.125, 0.0625])
    with pytest.raises(ValueError):
        halving(2)
