package qam

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStoreBuildsUniformSuperposition(t *testing.T) {
	patterns := []int{3, 5, 9}
	m, err := Store(4, patterns)
	if err != nil {
		t.Fatal(err)
	}
	probs := m.State().Probabilities()
	want := 1.0 / 3
	for idx, p := range probs {
		stored := idx == 3 || idx == 5 || idx == 9
		if stored && math.Abs(p-want) > 1e-9 {
			t.Errorf("pattern %d probability %v, want %v", idx, p, want)
		}
		if !stored && p > 1e-12 {
			t.Errorf("non-pattern %d has probability %v", idx, p)
		}
	}
	if m.Capacity() != 3 {
		t.Errorf("capacity = %d", m.Capacity())
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := Store(2, nil); err == nil {
		t.Error("empty pattern set accepted")
	}
	if _, err := Store(2, []int{5}); err == nil {
		t.Error("out-of-range pattern accepted")
	}
	if _, err := Store(2, []int{1, 1}); err == nil {
		t.Error("duplicate pattern accepted")
	}
	if _, err := Store(30, []int{0}); err == nil {
		t.Error("oversized register accepted")
	}
}

func TestHammingDistance(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0b0000, 0b0000, 0},
		{0b1111, 0b0000, 4},
		{0b1010, 0b0110, 2},
	}
	for _, c := range cases {
		if got := HammingDistance(c.a, c.b); got != c.want {
			t.Errorf("Hamming(%b,%b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRecallExactMatch(t *testing.T) {
	// 16 stored patterns in 6 qubits; recall one exactly.
	patterns := make([]int, 16)
	for i := range patterns {
		patterns[i] = i * 4 // spread across the space
	}
	m, err := Store(6, patterns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Recall(24, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != 24 {
		t.Fatalf("matches = %v", res.Matches)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("recall success %v", res.SuccessProb)
	}
}

func TestRecallApproximateMatch(t *testing.T) {
	// Query differs from one stored pattern by one bit.
	m, err := Store(5, []int{0b00000, 0b11111, 0b10101, 0b01010})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Recall(0b11011, 1, 0) // distance 1 from 11111
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != 0b11111 {
		t.Fatalf("matches = %v", res.Matches)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("approximate recall success %v", res.SuccessProb)
	}
}

func TestRecallNoMatch(t *testing.T) {
	m, _ := Store(4, []int{0})
	if _, err := m.Recall(0b1111, 1, 0); err == nil {
		t.Error("impossible recall accepted")
	}
	if _, err := m.Recall(99, 0, 0); err == nil {
		t.Error("out-of-range query accepted")
	}
}

func TestBestRecallReturnsNearest(t *testing.T) {
	m, err := Store(6, []int{7, 21, 42, 56})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Recall(20, 1, 0) // distance 1 from 21 only
	if err != nil {
		t.Fatal(err)
	}
	best, p := 0, 0.0
	for idx, q := range res.State.Probabilities() {
		if q > p {
			best, p = idx, q
		}
	}
	if best != 21 {
		t.Errorf("best recall = %d, want 21", best)
	}
	if p < 0.5 {
		t.Errorf("best probability %v", p)
	}
}

// Property: recall never amplifies states that were not stored.
func TestRecallSupportProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 4 + int(seed%3+3)%3
		dim := 1 << uint(n)
		patterns := []int{}
		for i := 0; i < dim; i += 3 {
			patterns = append(patterns, i)
		}
		m, err := Store(n, patterns)
		if err != nil {
			return false
		}
		q := patterns[int(seed%int64(len(patterns))+int64(len(patterns)))%len(patterns)]
		res, err := m.Recall(q, 0, 0)
		if err != nil {
			return false
		}
		stored := map[int]bool{}
		for _, p := range patterns {
			stored[p] = true
		}
		for idx, prob := range res.State.Probabilities() {
			if !stored[idx] && prob > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
