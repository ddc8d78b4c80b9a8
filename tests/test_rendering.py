"""Pragma text generation and template insertion against golden files."""

from pathlib import Path

import pytest

from pragmatune.errors import MissingAnchorError
from pragmatune.loops import (
    Configuration,
    Interchange,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
)
from pragmatune.rendering import pragma_clause, pragma_lines, render_pragmas, template_anchors

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestPragmaClause:
    def test_frozen_spellings(self):
        assert pragma_clause(Tile("i", 32)) == "tile sizes(32)"
        assert pragma_clause(Tile("i", 8, peel=True)) == "tile sizes(8) peel(rectangular)"
        assert pragma_clause(Interchange("i", (2, 0, 1))) == "interchange permutation(2,0,1)"
        assert pragma_clause(ParallelizeThread("i")) == "parallelize_thread"
        assert pragma_clause(Unroll("i", None)) == "unrolling full"
        assert pragma_clause(Unroll("i", 4)) == "unrolling factor(4)"
        assert pragma_clause(Reverse("i")) == "reverse"
        assert pragma_clause(Pack("i", "A")) == "pack array(A)"
        with pytest.raises(TypeError, match="not a transformation"):
            pragma_clause("x")

    def test_id_clause_only_outside_floor_lineage(self):
        assert pragma_clause(Reverse("i")) == "reverse"
        assert pragma_clause(Reverse("i.f")) == "reverse"
        assert pragma_clause(Reverse("i.f.f")) == "reverse"
        assert pragma_clause(Reverse("i.t")) == "reverse id(i.t)"
        assert pragma_clause(Reverse("i.f.t")) == "reverse id(i.f.t)"
        assert pragma_clause(Tile("i.t", 4)) == "tile sizes(4) id(i.t)"


class TestPragmaLines:
    def test_application_order(self):
        config = Configuration((Tile("i", 32), Unroll("i.t", 4)))
        assert pragma_lines(config) == [
            "#pragma clang loop tile sizes(32)",
            "#pragma clang loop unrolling factor(4) id(i.t)",
        ]

    def test_empty(self):
        assert pragma_lines(Configuration()) == []


class TestRenderPragmas:
    def test_golden_tile_parallelize(self):
        config = Configuration((Tile("i", 32), ParallelizeThread("i.f")))
        rendered = render_pragmas(config, golden("scale_template.c"))
        assert rendered == golden("tile_parallelize.c")

    def test_golden_unroll_factor(self):
        config = Configuration((Tile("i", 32), Unroll("i.t", 4)))
        rendered = render_pragmas(config, golden("scale_template.c"))
        assert rendered == golden("unroll_factor.c")

    def test_empty_config_returns_template_unchanged(self):
        template = golden("scale_template.c")
        assert render_pragmas(Configuration(), template) == template

    def test_later_steps_stack_above_earlier(self):
        template = "/*@loop:i*/\nfor (;;) ;\n"
        config = Configuration((Reverse("i"), Tile("i", 4), Unroll("i.t", 2)))
        rendered = render_pragmas(config, template)
        assert rendered.split("\n") == [
            "/*@loop:i*/",
            "#pragma clang loop unrolling factor(2) id(i.t)",
            "#pragma clang loop tile sizes(4)",
            "#pragma clang loop reverse",
            "for (;;) ;",
            "",
        ]

    def test_indentation_matches_anchor(self):
        template = "{\n\t/*@loop:i*/\n\tfor (;;) ;\n}\n"
        rendered = render_pragmas(Configuration((Reverse("i"),)), template)
        assert "\n\t#pragma clang loop reverse\n" in rendered

    def test_steps_route_to_their_anchors(self):
        template = "/*@loop:i*/\nfor (;;) ;\n/*@loop:j*/\nfor (;;) ;\n"
        config = Configuration((Tile("i", 4), Reverse("j"), Unroll("i.t", 2)))
        rendered = render_pragmas(config, template)
        assert rendered.split("\n") == [
            "/*@loop:i*/",
            "#pragma clang loop unrolling factor(2) id(i.t)",
            "#pragma clang loop tile sizes(4)",
            "for (;;) ;",
            "/*@loop:j*/",
            "#pragma clang loop reverse",
            "for (;;) ;",
            "",
        ]

    def test_missing_anchor_raises(self):
        with pytest.raises(MissingAnchorError):
            render_pragmas(
                Configuration((Reverse("j"),)), golden("scale_template.c")
            )

    def test_derived_loops_use_template_anchor(self):
        # A target like i.f.t descends from template loop i.
        config = Configuration((Tile("i", 8), Tile("i.f", 2), Reverse("i.f.t")))
        rendered = render_pragmas(config, golden("scale_template.c"))
        assert "#pragma clang loop reverse id(i.f.t)" in rendered

    def test_anchor_line_must_stand_alone(self):
        template = "x = 1; /*@loop:i*/\nfor (;;) ;\n"
        with pytest.raises(MissingAnchorError):
            render_pragmas(Configuration((Reverse("i"),)), template)


    def test_the_first_anchor_of_an_id_wins(self):
        template = "/*@loop:i*/\nfor (;;) ;\n  /*@loop:i*/\n  for (;;) ;\n"
        assert template_anchors(template) == {"i": (0, "")}
        rendered = render_pragmas(Configuration((Reverse("i"),)), template)
        assert rendered.split("\n")[:2] == ["/*@loop:i*/", "#pragma clang loop reverse"]
        assert rendered.count("#pragma") == 1

class TestInjectivityScope:
    def test_same_anchor_orderings_render_differently(self):
        template = golden("scale_template.c")
        ab = Configuration((Reverse("i"), Unroll("i", 2)))
        ba = Configuration((Unroll("i", 2), Reverse("i")))
        assert render_pragmas(ab, template) != render_pragmas(ba, template)

    def test_cross_anchor_interleavings_render_identically(self):
        # Ordering between steps of different template loops is not
        # observable in the rendered text; the configuration key keeps
        # them distinct.
        template = "/*@loop:i*/\nfor (;;) ;\n/*@loop:j*/\nfor (;;) ;\n"
        ab = Configuration((Reverse("i"), Reverse("j")))
        ba = Configuration((Reverse("j"), Reverse("i")))
        assert render_pragmas(ab, template) == render_pragmas(ba, template)
        assert ab.key != ba.key
