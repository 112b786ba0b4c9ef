package span

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two children overlapping on [20, 30): their union is [10, 50).
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		// A child running past its parent counts only inside it: [90, 100).
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 4, Parent: 1, Name: "g", Start: 12, End: 18},
	}
	got := SelfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	byName := SelfByName(spans)
	if byName["root"] != 50 || byName["a"] != 14 {
		t.Errorf("SelfByName = %v", byName)
	}
}

func TestSelfTimeNestedChildrenInsideOneAnother(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 9},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 3},
	}
	if got := SelfTimes(spans)[0]; got != 2 {
		t.Fatalf("root self %d, want 2", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", "", -1)
	child := r.Start("child", "x", root)
	r.End(child)
	r.End(root)
	s := r.Spans()
	if len(s) != 2 || s[1].Parent != root || s[1].Detail != "x" {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Fatalf("child not inside root: %+v", s)
	}
}
