package qx

import (
	"strings"
	"testing"
)

func TestResultCount(t *testing.T) {
	narrow := &Result{NumQubits: 3, Shots: 10, Counts: map[int]int{0b101: 7, 0: 3}}
	wide70 := &Result{NumQubits: 70, Shots: 16, Counts: map[int]int{0: 16}}
	wide := &Result{NumQubits: 70, Shots: 4, WideCounts: map[string]int{"1" + strings.Repeat("0", 69): 4}}
	rows := []struct {
		name string
		r    *Result
		bits string
		want int
	}{
		{"narrow outcome", narrow, "101", 7},
		{"narrow zero", narrow, "000", 3},
		{"narrow short string", narrow, "0", 3},
		{"narrow unseen outcome", narrow, "111", 0},
		{"longer than the register", narrow, "0101", 0},
		{"non-binary character", narrow, "1x1", 0},
		{"binary digit other than 0 and 1", narrow, "121", 0},
		{"empty string", narrow, "", 3},
		{"70-qubit narrow zero", wide70, strings.Repeat("0", 70), 16},
		{"70-qubit narrow high bit", wide70, "1" + strings.Repeat("0", 69), 0},
		{"70-qubit narrow bit 63", wide70, "1" + strings.Repeat("0", 63), 0},
		{"70-qubit narrow too long", wide70, strings.Repeat("0", 71), 0},
		{"wide outcome", wide, "1" + strings.Repeat("0", 69), 4},
		{"wide non-binary", wide, "1" + strings.Repeat("0", 68) + "z", 0},
		{"wide too long", wide, "1" + strings.Repeat("0", 70), 0},
	}
	for _, row := range rows {
		if got := row.r.Count(row.bits); got != row.want {
			t.Errorf("%s: Count(%q) = %d, want %d", row.name, row.bits, got, row.want)
		}
	}
}
