package lang

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// paperQuery is the running example of the paper (Sections 3 and 6).
const paperQuery = `cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Root.Name != "cd" {
		t.Errorf("root = %q", q.Root.Name)
	}
	if got := q.Selectors(); got != 7 {
		t.Errorf("Selectors = %d, want 7", got)
	}
	// Round trip through String.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q != %q", q2.String(), q.String())
	}
}

func TestParsePaperOrQuery(t *testing.T) {
	// The Section 3 "or" example.
	src := `cd[title["piano" and ("concerto" or "sonata")] and (composer["rachmaninov"] or performer["ashkenazy"])]`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	conj, err := Separate(q, 0)
	if err != nil {
		t.Fatalf("Separate: %v", err)
	}
	if len(conj) != 4 {
		t.Fatalf("separated representation has %d queries, want 2^2 = 4", len(conj))
	}
	want := map[string]bool{
		`cd[title[piano and concerto] and composer[rachmaninov]]`: true,
		`cd[title[piano and concerto] and performer[ashkenazy]]`:  true,
		`cd[title[piano and sonata] and composer[rachmaninov]]`:   true,
		`cd[title[piano and sonata] and performer[ashkenazy]]`:    true,
	}
	for _, c := range conj {
		s := strings.ReplaceAll(c.String(), `"`, ``)
		if !want[s] {
			t.Errorf("unexpected disjunct %s", s)
		}
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("missing disjuncts: %v", want)
	}
}

func TestParseBareSelector(t *testing.T) {
	q, err := Parse("cd")
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Name != "cd" || q.Root.Child != nil {
		t.Errorf("bare selector parsed as %v", q.Root)
	}
}

func TestParsePrecedence(t *testing.T) {
	// and binds tighter than or: a or b and c  ==  a or (b and c).
	q := MustParse(`x["a" or "b" and "c"]`)
	or, ok := q.Root.Child.(*Or)
	if !ok {
		t.Fatalf("top operator is %T, want *Or", q.Root.Child)
	}
	if _, ok := or.Right.(*And); !ok {
		t.Fatalf("right operand is %T, want *And", or.Right)
	}
	// Parentheses override: (a or b) and c.
	q2 := MustParse(`x[("a" or "b") and "c"]`)
	if _, ok := q2.Root.Child.(*And); !ok {
		t.Fatalf("top operator is %T, want *And", q2.Root.Child)
	}
}

func TestParseMultiWordText(t *testing.T) {
	q := MustParse(`cd[title["Piano Concerto"]]`)
	title := q.Root.Child.(*Selector)
	and, ok := title.Child.(*And)
	if !ok {
		t.Fatalf("multi-word text parsed as %T", title.Child)
	}
	if and.Left.(*Text).Term != "piano" || and.Right.(*Text).Term != "concerto" {
		t.Errorf("words = %v and %v", and.Left, and.Right)
	}
}

func TestParseSingleQuotes(t *testing.T) {
	q := MustParse(`cd[title['piano']]`)
	title := q.Root.Child.(*Selector)
	if txt, ok := title.Child.(*Text); !ok || txt.Term != "piano" {
		t.Errorf("single-quoted selector = %v", title.Child)
	}
	// The paper's double-apostrophe typesetting.
	q2 := MustParse(`cd[title[''piano"]]`)
	title2 := q2.Root.Child.(*Selector)
	if txt, ok := title2.Child.(*Text); !ok || txt.Term != "piano" {
		t.Errorf("mixed-quote selector = %v", title2.Child)
	}
}

func TestParseTextNormalization(t *testing.T) {
	q := MustParse(`cd["RACHMANINOV"]`)
	if txt := q.Root.Child.(*Text); txt.Term != "rachmaninov" {
		t.Errorf("term = %q", txt.Term)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"[x]",
		"cd[",
		"cd[]",
		"cd[title",
		"cd[title]]",
		`cd["unterminated]`,
		"cd[and]",
		"cd[x or]",
		"cd[x and]",
		"cd[(x]",
		`cd["..."]`, // no words after normalization
		"cd extra",
		"cd[x](y)",
		"$bad",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T, want *SyntaxError", src, err)
		}
	}

	// Nesting: 64 levels of brackets and parentheses parse; the 65th
	// opener is rejected where it stands.
	nested := func(depth int) string {
		src := `"x"`
		for i := depth - 1; i >= 0; i-- {
			if i%2 == 0 {
				src = "a[" + src + "]"
			} else {
				src = "(" + src + ")"
			}
		}
		return src
	}
	if _, err := Parse(nested(maxDepth)); err != nil {
		t.Errorf("Parse of a %d-deep query: %v", maxDepth, err)
	}
	src := nested(maxDepth + 1)
	_, err := Parse(src)
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("Parse of a %d-deep query: error %v, want *SyntaxError", maxDepth+1, err)
	}
	if want := strings.LastIndexAny(src, "[("); se.Pos != want {
		t.Errorf("Parse of a %d-deep query failed at offset %d, want the last opener at %d", maxDepth+1, se.Pos, want)
	}
}

func TestStringRoundTripQuick(t *testing.T) {
	queries := []string{
		paperQuery,
		`a`,
		`a[b]`,
		`a[b and c]`,
		`a[b or c]`,
		`a[b and (c or d)]`,
		`a[(b or c) and d]`,
		`a[b[c["x"]] or d]`,
		`name1[name2["term1" and ("term2" or "term3")]]`,
	}
	for _, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("not a fixpoint: %q → %q", q.String(), q2.String())
		}
	}
}

func TestLabels(t *testing.T) {
	q := MustParse(paperQuery)
	labels := q.Labels()
	if len(labels) != 7 {
		t.Fatalf("Labels = %v, want 7 entries", labels)
	}
	want := map[string]bool{
		"struct:cd": true, "struct:track": true, "struct:title": true,
		"struct:composer": true, "text:piano": true, "text:concerto": true,
		"text:rachmaninov": true,
	}
	for _, l := range labels {
		if !want[l.String()] && l.String() != "text:rachmaninov" {
			t.Errorf("unexpected label %s", l)
		}
	}
}

func TestSeparateLimit(t *testing.T) {
	// 2^12 disjuncts exceed a limit of 100.
	var b strings.Builder
	b.WriteString("root[")
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(`("a" or "b")`)
	}
	b.WriteString("]")
	q := MustParse(b.String())
	if _, err := Separate(q, 100); err == nil {
		t.Fatal("Separate accepted an exponential query under a tight limit")
	}
	if conj, err := Separate(q, 4096); err != nil || len(conj) != 4096 {
		t.Fatalf("Separate = %d, %v; want 4096 disjuncts", len(conj), err)
	}
}

func TestSeparateSharesNothing(t *testing.T) {
	// Mutating one disjunct must not affect another (deep copies).
	q := MustParse(`a[b["x"] or b["y"]]`)
	conj, err := Separate(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(conj) != 2 {
		t.Fatalf("disjuncts = %d", len(conj))
	}
	conj[0].Children[0].Label = "mutated"
	if conj[1].Children[0].Label == "mutated" {
		t.Fatal("disjuncts share nodes")
	}
}

func TestConjNodeHelpers(t *testing.T) {
	q := MustParse(paperQuery)
	conj, err := Separate(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(conj) != 1 {
		t.Fatalf("conjunctive query count = %d", len(conj))
	}
	c := conj[0]
	if c.Size() != 7 {
		t.Errorf("Size = %d, want 7", c.Size())
	}
	if c.IsLeaf() {
		t.Error("root reported as leaf")
	}
	clone := c.Clone()
	if clone.String() != c.String() {
		t.Error("clone differs")
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
