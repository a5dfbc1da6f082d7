"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    LibraryError,
    LogicError,
    MappingError,
    NetlistError,
    ParseError,
    ReproError,
    TimingError,
    TransformError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            LogicError,
            ParseError,
            LibraryError,
            NetlistError,
            MappingError,
            TransformError,
            TimingError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_parse_error_line_prefix(self):
        err = ParseError("bad token", line=42)
        assert "line 42" in str(err)
        assert err.line == 42

    def test_parse_error_no_line(self):
        err = ParseError("bad token")
        assert str(err) == "bad token"
        assert err.line is None

    def test_catchable_at_api_boundary(self, lib):
        from repro.netlist.netlist import Netlist

        nl = Netlist("t", lib)
        with pytest.raises(ReproError):
            nl.gate("missing")
