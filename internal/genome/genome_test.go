package genome

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDNAStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dna := GenerateDNA(20000, rng)
	if len(dna) != 20000 {
		t.Fatalf("length %d", len(dna))
	}
	for i := 0; i < len(dna); i++ {
		if BaseIndex(dna[i]) < 0 {
			t.Fatalf("invalid base %q", dna[i])
		}
	}
	gc := GCContent(dna)
	if gc < 0.35 || gc > 0.50 {
		t.Errorf("GC content %v outside human-like band", gc)
	}
	h := BaseEntropy(dna)
	if h < 1.9 || h > 2.0 {
		t.Errorf("entropy %v should be near but below 2 bits", h)
	}
	// CpG depletion: count CG dinucleotides vs GC.
	cg := strings.Count(dna, "CG")
	gcPairs := strings.Count(dna, "GC")
	if cg*2 >= gcPairs {
		t.Errorf("CpG not depleted: CG=%d GC=%d", cg, gcPairs)
	}
}

func TestEncodeDecodeSequence(t *testing.T) {
	code, err := EncodeSequence("ACGT")
	if err != nil {
		t.Fatal(err)
	}
	// Two bits per base, first base lowest: A=0, C=1, G=2, T=3.
	if want := 0 | 1<<2 | 2<<4 | 3<<6; code != want {
		t.Errorf("EncodeSequence(ACGT) = %d, want %d", code, want)
	}
	if _, err := EncodeSequence("ACGX"); err == nil {
		t.Error("invalid base accepted")
	}
	if _, err := EncodeSequence(strings.Repeat("A", 31)); err == nil {
		t.Error("overlong sequence accepted")
	}
}

// Property: encode/decode round-trips for random sequences.
func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		seq := GenerateDNA(n, rng)
		code, err := EncodeSequence(seq)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if Bases[code>>uint(2*i)&3] != seq[i] {
				return false
			}
		}
		return code>>uint(2*n) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := GenerateDNA(500, rng)
	reads := SampleReads(ref, 20, 50, 0, rng)
	for _, r := range reads {
		if ref[r.Origin:r.Origin+20] != r.Seq {
			t.Fatalf("error-free read differs from reference at %d", r.Origin)
		}
	}
	noisy := SampleReads(ref, 20, 200, 0.1, rng)
	mismatches := 0
	for _, r := range noisy {
		orig := ref[r.Origin : r.Origin+20]
		for j := range r.Seq {
			if r.Seq[j] != orig[j] {
				mismatches++
			}
		}
	}
	rate := float64(mismatches) / float64(200*20)
	if rate < 0.05 || rate > 0.15 {
		t.Errorf("observed error rate %v, want ≈0.1", rate)
	}
}

func TestNaiveAlign(t *testing.T) {
	ref := "AAAACGTACGTAAAA"
	a := NaiveAlign(ref, "ACGTACGT")
	if a.Position != 3 || a.Mismatches != 0 {
		t.Errorf("alignment = %+v", a)
	}
	// One error still aligns to the right place.
	a = NaiveAlign(ref, "ACGTTCGT")
	if a.Position != 3 || a.Mismatches != 1 {
		t.Errorf("noisy alignment = %+v", a)
	}
	if a.Comparisons <= 0 {
		t.Error("no comparisons counted")
	}
}

func TestIndexAlignMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := GenerateDNA(2000, rng)
	idx := BuildIndex(ref, 8)
	reads := SampleReads(ref, 24, 40, 0.02, rng)
	for _, r := range reads {
		naive := NaiveAlign(ref, r.Seq)
		indexed := idx.Align(r.Seq)
		if indexed.Position < 0 {
			// Seed-and-extend can miss when every seed k-mer has an
			// error; acceptable for a heuristic, skip.
			continue
		}
		if indexed.Mismatches < naive.Mismatches {
			t.Fatalf("indexed better than exhaustive?! %+v vs %+v", indexed, naive)
		}
		if indexed.Comparisons >= naive.Comparisons {
			t.Errorf("index did not reduce comparisons: %d vs %d", indexed.Comparisons, naive.Comparisons)
		}
	}
}

func TestQuantumAlignerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := GenerateDNA(60, rng) // 6 index bits + 8 data bits = 14 qubits
	qa, err := NewQuantumAligner(ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	reads := SampleReads(ref, 4, 10, 0, rng)
	for _, r := range reads {
		res, err := qa.Align(r.Seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The recalled slice must equal the read (duplicates may map to a
		// different but identical position).
		got := ref[res.Position : res.Position+4]
		if got != r.Seq {
			t.Errorf("aligned %q at %d, want %q", got, res.Position, r.Seq)
		}
		if res.SuccessProb < 0.5 {
			t.Errorf("success prob %v", res.SuccessProb)
		}
	}
}

func TestQuantumAlignerApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := GenerateDNA(40, rng)
	qa, err := NewQuantumAligner(ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	reads := SampleReads(ref, 4, 6, 0.15, rng)
	for _, r := range reads {
		res, err := qa.Align(r.Seq, 1)
		if err != nil {
			continue // read may have ≥2 errors; oracle finds nothing
		}
		if res.Mismatches > 1 {
			t.Errorf("returned slice with %d mismatches under bound 1", res.Mismatches)
		}
	}
}

func TestQuantumAlignerSizeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := GenerateDNA(4000, rng)
	if _, err := NewQuantumAligner(ref, 12); err == nil {
		t.Error("oversized aligner accepted")
	}
	if _, err := NewQuantumAligner("ACG", 10); err == nil {
		t.Error("reference shorter than read accepted")
	}
}

func TestLogicalQubitEstimate(t *testing.T) {
	// Human genome with 50-base reads: the paper's ≈150 logical qubits.
	got := LogicalQubitEstimate(3_100_000_000, 50)
	if got < 130 || got > 160 {
		t.Errorf("human-genome estimate = %d, want ≈150 (paper §2.3)", got)
	}
	// Small instances stay small.
	if small := LogicalQubitEstimate(1024, 4); small > 30 {
		t.Errorf("small estimate = %d", small)
	}
}

func TestClassicalMemoryComparison(t *testing.T) {
	// The QAM register is exponentially smaller than the classical slice
	// table.
	classical := ClassicalMemoryBits(1<<20, 16)
	quantum := LogicalQubitEstimate(1<<20, 16)
	if classical <= quantum*1000 {
		t.Errorf("classical %d bits vs quantum %d qubits: expected orders of magnitude", classical, quantum)
	}
}
