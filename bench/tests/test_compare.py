"""The comparison rule on fixed synthetic samples."""

from compare import verdict

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_a_clear_gain_is_better():
    change = [x * 0.8 for x in PARENT]
    v = verdict(PARENT, change, bound=0.1)
    assert v["verdict"] == "better" and v["wins"] == 10


def test_noise_within_the_bound_is_unchanged():
    change = PARENT[1:] + PARENT[:1]  # same values, paired differently
    v = verdict(PARENT, change, bound=0.1)
    assert v["verdict"] == "unchanged" and v["change_pct"] == 0.0


def test_a_slowdown_beyond_the_bound_is_worse():
    assert verdict(PARENT, [x * 1.2 for x in PARENT], bound=0.1)["verdict"] == "worse"
    # higher-is-better metrics flip the direction
    assert verdict(PARENT, [x * 0.8 for x in PARENT], bound=0.1, better="higher")["verdict"] == "worse"


def test_spread_beyond_the_bound_is_unresolved_not_unchanged():
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    v = verdict(wide, wide[::-1], bound=0.1)
    assert v["spread"] > 0.1 and v["verdict"] == "unresolved"


def test_every_change_run_beating_every_parent_run_is_not_unresolved():
    skewed = [10.0] * 7 + [30.0] * 3  # quartile distance far above the bound
    v = verdict(skewed, [9.9] * 10, bound=0.05)
    assert v["spread"] > 0.05 and v["wins"] == 10
    assert v["verdict"] == "unchanged"  # gain not claimed: medians differ by < the spread


def test_eight_wins_in_ten_is_not_a_gain():
    wide = [10.0, 14.0, 11.0, 13.0, 12.0, 10.5, 13.5, 11.5, 12.5, 12.0]
    change = [x - 0.3 for x in wide]
    change[0], change[1] = 11.0, 15.0
    v = verdict(wide, change, bound=0.05)
    assert v["wins"] == 8 and v["verdict"] == "unresolved"
