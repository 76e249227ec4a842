package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/query"
)

func TestParseSubscriptionStreamOnly(t *testing.T) {
	sub, err := parseSubscription("n1", "Station1")
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "n1" || len(sub.Streams) != 1 || sub.Streams[0] != "Station1" || len(sub.Filters) != 0 {
		t.Fatalf("sub = %+v", sub)
	}
}

func TestParseSubscriptionOperators(t *testing.T) {
	cases := []struct {
		expr string
		op   query.Op
		val  float64
	}{
		{"Station1:snowHeight>40", query.Gt, 40},
		{"Station1:snowHeight>=40", query.Ge, 40},
		{"Station1:snowHeight<40", query.Lt, 40},
		{"Station1:snowHeight<=40", query.Le, 40},
		{"Station1: snowHeight  >  40.5 ", query.Gt, 40.5},  // whitespace everywhere
		{" Station1 :temperature<=-2", query.Le, -2},        // negative literal
		{"Station1:snowHeight<+Inf", query.Lt, math.Inf(1)}, // infinities stay legal
		{"Station1:snowHeight>-inf", query.Gt, math.Inf(-1)},
	}
	for _, c := range cases {
		sub, err := parseSubscription("n", c.expr)
		if err != nil {
			t.Errorf("parseSubscription(%q): %v", c.expr, err)
			continue
		}
		if len(sub.Filters) != 1 {
			t.Errorf("parseSubscription(%q): %d filters, want 1", c.expr, len(sub.Filters))
			continue
		}
		f := sub.Filters[0]
		if f.Op != c.op {
			t.Errorf("parseSubscription(%q): op = %v, want %v", c.expr, f.Op, c.op)
		}
		if f.Right.Lit == nil || f.Right.Lit.F != c.val {
			t.Errorf("parseSubscription(%q): literal = %+v, want %v", c.expr, f.Right.Lit, c.val)
		}
		if f.Left.Col == nil || strings.Contains(f.Left.Col.Attr, " ") {
			t.Errorf("parseSubscription(%q): attr not trimmed: %+v", c.expr, f.Left.Col)
		}
	}
}

func TestParseSubscriptionErrors(t *testing.T) {
	for _, expr := range []string{
		"Station1:snowHeight>forty", // bad literal
		"Station1:snowHeight>NaN",   // NaN threshold matches nothing
		"Station1:snowHeight<=nan",  // ... in any spelling
		"Station1:>40",              // missing attribute
		"Station1:snowHeight!40",    // no operator
		"Station1:snowHeight",       // filter part without operator
		":snowHeight>40",            // empty stream name
		"",                          // empty everything
	} {
		if _, err := parseSubscription("n", expr); err == nil {
			t.Errorf("parseSubscription(%q): want error", expr)
		}
	}
}
