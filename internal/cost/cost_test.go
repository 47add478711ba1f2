package cost

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	m := NewModel()
	if got := m.InsertCost("anything", Struct); got != 1 {
		t.Errorf("InsertCost default = %d, want 1", got)
	}
	if got := m.DeleteCost("anything", Struct); !IsInf(got) {
		t.Errorf("DeleteCost default = %d, want Inf", got)
	}
	if got := m.RenameCost("a", "b", Text); !IsInf(got) {
		t.Errorf("RenameCost default = %d, want Inf", got)
	}
	if got := m.RenameCost("a", "a", Text); got != 0 {
		t.Errorf("RenameCost(a,a) = %d, want 0", got)
	}
	if rs := m.Renamings("a", Struct); len(rs) != 0 {
		t.Errorf("Renamings default = %v, want empty", rs)
	}
}

func TestPaperExampleTable(t *testing.T) {
	m := PaperExample()
	insert := []struct {
		label string
		want  Cost
	}{
		{"category", 4}, {"cd", 2}, {"composer", 5}, {"performer", 5}, {"title", 3},
		{"track", 1}, {"tracks", 1}, // unlisted labels default to 1
	}
	for _, c := range insert {
		if got := m.InsertCost(c.label, Struct); got != c.want {
			t.Errorf("InsertCost(%s) = %d, want %d", c.label, got, c.want)
		}
	}
	deletes := []struct {
		label string
		kind  Kind
		want  Cost
	}{
		{"composer", Struct, 7}, {"concerto", Text, 6}, {"piano", Text, 8},
		{"title", Struct, 5}, {"track", Struct, 3},
	}
	for _, c := range deletes {
		if got := m.DeleteCost(c.label, c.kind); got != c.want {
			t.Errorf("DeleteCost(%s) = %d, want %d", c.label, got, c.want)
		}
	}
	if got := m.DeleteCost("cd", Struct); !IsInf(got) {
		t.Errorf("DeleteCost(cd) = %d, want Inf", got)
	}
	renames := []struct {
		from, to string
		kind     Kind
		want     Cost
	}{
		{"cd", "dvd", Struct, 6}, {"cd", "mc", Struct, 4},
		{"composer", "performer", Struct, 4},
		{"concerto", "sonata", Text, 3},
		{"title", "category", Struct, 4},
	}
	for _, c := range renames {
		if got := m.RenameCost(c.from, c.to, c.kind); got != c.want {
			t.Errorf("RenameCost(%s→%s) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	if got := m.RenameCost("cd", "composer", Struct); !IsInf(got) {
		t.Errorf("RenameCost(cd→composer) = %d, want Inf", got)
	}
	// Renamings of cd must be sorted by cost: mc (4) before dvd (6).
	rs := m.Renamings("cd", Struct)
	if len(rs) != 2 || rs[0].To != "mc" || rs[1].To != "dvd" {
		t.Errorf("Renamings(cd) = %v, want [mc:4 dvd:6]", rs)
	}
}

func TestAddSaturates(t *testing.T) {
	if got := Add(Inf, 5); !IsInf(got) {
		t.Errorf("Add(Inf,5) = %d, want Inf", got)
	}
	if got := Add(5, Inf); !IsInf(got) {
		t.Errorf("Add(5,Inf) = %d, want Inf", got)
	}
	if got := Add(Add(Inf, Inf), Inf); !IsInf(got) || got < 0 {
		t.Errorf("chained Add overflowed: %d", got)
	}
	if got := Add(2, 3); got != 5 {
		t.Errorf("Add(2,3) = %d, want 5", got)
	}
}

func TestAddQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Cost(a), Cost(b)
		sum := Add(x, y)
		return sum == x+y && sum >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRenamingKeepsCheapest(t *testing.T) {
	m := NewModel()
	m.AddRenaming("a", "b", Struct, 9)
	m.AddRenaming("a", "b", Struct, 3)
	m.AddRenaming("a", "b", Struct, 7)
	if got := m.RenameCost("a", "b", Struct); got != 3 {
		t.Errorf("RenameCost = %d, want 3", got)
	}
	if rs := m.Renamings("a", Struct); len(rs) != 1 {
		t.Errorf("Renamings = %v, want one entry", rs)
	}
}

func TestParse(t *testing.T) {
	src := `
# the Section 6 example, partially
default insert 1
insert struct cd 2
insert struct title 3
delete struct track 3
delete text "concerto" 6
rename struct cd mc 4
rename text "concerto" "sonata" 3
rename struct "with space" other inf
`
	m, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := m.InsertCost("cd", Struct); got != 2 {
		t.Errorf("InsertCost(cd) = %d, want 2", got)
	}
	if got := m.DeleteCost("concerto", Text); got != 6 {
		t.Errorf("DeleteCost(concerto) = %d, want 6", got)
	}
	if got := m.RenameCost("concerto", "sonata", Text); got != 3 {
		t.Errorf("RenameCost = %d, want 3", got)
	}
	if got := m.RenameCost("with space", "other", Struct); !IsInf(got) {
		t.Errorf("RenameCost inf = %d, want Inf", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus directive\n",
		"insert struct cd notanumber\n",
		"insert badkind cd 1\n",
		"delete struct cd -4\n",
		"rename struct a b\n",
		`insert struct "unterminated 1` + "\n",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	m := PaperExample()
	m.SetDefaultInsert(2)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m2.DefaultInsert() != 2 {
		t.Errorf("DefaultInsert = %d, want 2", m2.DefaultInsert())
	}
	checks := []struct {
		got, want Cost
		what      string
	}{
		{m2.InsertCost("cd", Struct), 2, "InsertCost(cd)"},
		{m2.DeleteCost("piano", Text), 8, "DeleteCost(piano)"},
		{m2.RenameCost("cd", "dvd", Struct), 6, "RenameCost(cd→dvd)"},
		{m2.RenameCost("title", "category", Struct), 4, "RenameCost(title→category)"},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Struct.String() != "struct" || Text.String() != "text" {
		t.Errorf("Kind.String: got %q/%q", Struct, Text)
	}
}

func TestMin(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 || Min(Inf, 1) != 1 {
		t.Error("Min misbehaves")
	}
}

// TestConcurrentRenamings reads one label's renamings from several
// goroutines, as the engines of concurrent queries do on a shared model.
// Renamings used to sort the model's slice in place on every call, which
// the race detector reports; now AddRenaming keeps the order and Renamings
// only reads.
func TestConcurrentRenamings(t *testing.T) {
	m := NewModel()
	for i := 20; i > 0; i-- {
		m.AddRenaming("a", fmt.Sprintf("t%02d", i), Struct, Cost(i))
	}
	// A cheaper duplicate moves its target to the front.
	m.AddRenaming("a", "t20", Struct, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rs := m.Renamings("a", Struct)
				if len(rs) != 20 || rs[0] != (Renaming{To: "t20", Cost: 0}) {
					t.Errorf("Renamings = %v", rs)
					return
				}
				for j := 1; j < len(rs); j++ {
					if compareRenamings(rs[j-1], rs[j]) >= 0 {
						t.Errorf("Renamings not sorted at %d: %v", j, rs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
