"""Tests for the crontab calendar cadence (repro.core.cron)."""

from __future__ import annotations

import time

import pytest

from repro.core import CronSchedule, as_schedule
from repro.errors import ValidationError


def at(year, month, day, hour=0, minute=0, second=0) -> float:
    """Epoch seconds for a local calendar time."""
    return time.mktime((year, month, day, hour, minute, second, 0, 0, -1))


class TestParsing:
    def test_star_fields_cover_full_ranges(self):
        s = CronSchedule.parse("* * * * *")
        assert s.minutes == frozenset(range(60))
        assert s.hours == frozenset(range(24))
        assert s.days == frozenset(range(1, 32))
        assert s.months == frozenset(range(1, 13))
        assert s.weekdays == frozenset(range(7))
        assert s.dom_star and s.dow_star

    def test_lists_ranges_and_steps_combine(self):
        s = CronSchedule.parse("0,30 2-4 */10 1,6-8 1-5")
        assert s.minutes == frozenset({0, 30})
        assert s.hours == frozenset({2, 3, 4})
        assert s.days == frozenset({1, 11, 21, 31})
        assert s.months == frozenset({1, 6, 7, 8})
        assert s.weekdays == frozenset({1, 2, 3, 4, 5})
        assert not s.dom_star and not s.dow_star

    def test_ranged_step(self):
        s = CronSchedule.parse("10-30/10 * * * *")
        assert s.minutes == frozenset({10, 20, 30})

    def test_sunday_is_both_0_and_7(self):
        assert CronSchedule.parse("0 0 * * 7").weekdays == frozenset({0})
        assert CronSchedule.parse("0 0 * * 0").weekdays == frozenset({0})

    def test_str_round_trips_spec(self):
        assert str(CronSchedule.parse("*/5 * * * *")) == "*/5 * * * *"

    def test_schedule_is_hashable(self):
        assert len({CronSchedule.parse("0 3 * * *"), CronSchedule.parse("0 3 * * *")}) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "* * * *",  # 4 fields
            "* * * * * *",  # 6 fields
            "60 * * * *",  # minute out of range
            "* 24 * * *",  # hour out of range
            "* * 0 * *",  # dom below range
            "* * * 13 *",  # month out of range
            "* * * * 8",  # dow out of range
            "5-1 * * * *",  # inverted range
            "*/0 * * * *",  # zero step
            "*/x * * * *",  # non-integer step
            "a * * * *",  # non-integer value
            "1,,2 * * * *",  # empty list item
            "0 0 31 2 *",  # unsatisfiable: Feb 31
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValidationError):
            CronSchedule.parse(spec)

    def test_unsatisfiable_spec_gives_up_after_four_calendar_years(self, monkeypatch):
        # Feb 31 never comes: the search skips ~40 months and days a year,
        # so four years of calendar take a few hundred steps, not millennia.
        calls = 0
        mktime = time.mktime

        def counting_mktime(fields):
            nonlocal calls
            calls += 1
            assert calls <= 1_000, "cron search walked past its 4-year horizon"
            return mktime(fields)

        monkeypatch.setattr(time, "mktime", counting_mktime)
        with pytest.raises(ValidationError, match="within 4 years"):
            CronSchedule.parse("0 0 31 2 *")


class TestMatching:
    def test_minute_granularity(self):
        s = CronSchedule.parse("30 3 * * *")
        assert s.matches(at(2026, 8, 10, 3, 30))
        assert s.matches(at(2026, 8, 10, 3, 30, second=59))
        assert not s.matches(at(2026, 8, 10, 3, 31))
        assert not s.matches(at(2026, 8, 10, 4, 30))

    def test_weekday_restriction(self):
        weekdays_only = CronSchedule.parse("0 9 * * 1-5")
        monday = at(2026, 8, 10, 9, 0)  # 2026-08-10 is a Monday
        sunday = at(2026, 8, 9, 9, 0)
        assert weekdays_only.matches(monday)
        assert not weekdays_only.matches(sunday)

    def test_dom_dow_or_rule(self):
        # Both restricted: fire on the 15th OR on Mondays (Vixie cron).
        s = CronSchedule.parse("0 0 15 * 1")
        assert s.matches(at(2026, 8, 15))  # a Saturday, but dom matches
        assert s.matches(at(2026, 8, 10))  # a Monday, but not the 15th
        assert not s.matches(at(2026, 8, 11))  # Tuesday the 11th: neither

    def test_only_restricted_day_field_decides(self):
        dom_only = CronSchedule.parse("0 0 15 * *")
        assert dom_only.matches(at(2026, 8, 15))
        assert not dom_only.matches(at(2026, 8, 10))
        dow_only = CronSchedule.parse("0 0 * * 1")
        assert dow_only.matches(at(2026, 8, 10))
        assert not dow_only.matches(at(2026, 8, 15))


class TestNextAfter:
    def test_strictly_after_and_minute_aligned(self):
        s = CronSchedule.parse("*/15 * * * *")
        t = s.next_after(at(2026, 8, 10, 3, 0))
        assert t == at(2026, 8, 10, 3, 15)
        # A timestamp exactly on a boundary advances to the next one.
        assert s.next_after(t) == at(2026, 8, 10, 3, 30)
        # Mid-minute timestamps round up to the next whole minute first.
        assert s.next_after(at(2026, 8, 10, 3, 14, second=30)) == at(2026, 8, 10, 3, 15)

    def test_rolls_over_hour_day_month(self):
        nightly = CronSchedule.parse("30 3 * * *")
        assert nightly.next_after(at(2026, 8, 10, 4, 0)) == at(2026, 8, 11, 3, 30)
        monthly = CronSchedule.parse("0 0 1 * *")
        assert monthly.next_after(at(2026, 8, 10)) == at(2026, 9, 1)
        assert monthly.next_after(at(2026, 12, 31, 23, 59)) == at(2027, 1, 1)

    def test_skips_to_matching_weekday(self):
        weekdays = CronSchedule.parse("0 9 * * 1-5")
        friday_ten = at(2026, 8, 14, 10, 0)  # past Friday's firing
        assert weekdays.next_after(friday_ten) == at(2026, 8, 17, 9, 0)  # Monday

    def test_far_future_match_resolves(self):
        leap = CronSchedule.parse("0 0 29 2 *")
        t = leap.next_after(at(2026, 8, 10))
        assert time.localtime(t)[:5] == (2028, 2, 29, 0, 0)

    def test_every_result_matches_the_schedule(self):
        s = CronSchedule.parse("*/20 1,13 * * *")
        t = at(2026, 8, 10)
        for _ in range(12):
            t = s.next_after(t)
            assert s.matches(t)


class TestAsSchedule:
    def test_none_passes_through(self):
        assert as_schedule(None) is None

    def test_string_parses(self):
        s = as_schedule("0 3 * * *")
        assert isinstance(s, CronSchedule)

    def test_duck_typed_object_accepted_as_is(self):
        class Fake:
            def next_after(self, ts):
                return ts + 1.0

        fake = Fake()
        assert as_schedule(fake) is fake

    def test_anything_else_raises(self):
        with pytest.raises(ValidationError):
            as_schedule(3600)
