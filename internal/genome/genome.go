// Package genome implements the quantum genome sequencing accelerator of
// §3.2: artificial DNA generation that "preserves the statistical and
// entropic complexity of the base pairs in biological genomes; yet in a
// reduced size", read sampling with sequencing errors, classical
// alignment baselines, and the quantum aligner that stores indexed
// reference slices in a quantum associative memory and recalls the
// closest match with Grover-style amplification.
package genome

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Bases of DNA in encoding order: A=0, C=1, G=2, T=3 (2 bits per base).
const Bases = "ACGT"

// markovOrder1 is an order-1 transition table with human-like dinucleotide
// bias: overall GC content ≈ 41 % and the characteristic CpG (C→G)
// depletion of mammalian genomes. Rows: previous base A,C,G,T; columns:
// next base A,C,G,T.
var markovOrder1 = [4][4]float64{
	{0.33, 0.18, 0.27, 0.22}, // after A
	{0.35, 0.25, 0.05, 0.35}, // after C (CpG depletion: C→G rare)
	{0.28, 0.21, 0.25, 0.26}, // after G
	{0.22, 0.20, 0.25, 0.33}, // after T
}

// GenerateDNA returns an artificial DNA string of the given length from
// the order-1 Markov model.
func GenerateDNA(length int, rng *rand.Rand) string {
	if length <= 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(length)
	cur := rng.Intn(4)
	b.WriteByte(Bases[cur])
	for i := 1; i < length; i++ {
		r := rng.Float64()
		row := markovOrder1[cur]
		next := 3
		acc := 0.0
		for j := 0; j < 4; j++ {
			acc += row[j]
			if r < acc {
				next = j
				break
			}
		}
		b.WriteByte(Bases[next])
		cur = next
	}
	return b.String()
}

// BaseIndex returns the 2-bit code of a base, or -1 for a non-base byte.
func BaseIndex(b byte) int {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	}
	return -1
}

// EncodeSequence packs a DNA string into an integer, 2 bits per base,
// first base in the lowest bits. Sequences longer than 30 bases overflow.
func EncodeSequence(seq string) (int, error) {
	if len(seq) > 30 {
		return 0, fmt.Errorf("genome: sequence %q too long to encode", seq)
	}
	out := 0
	for i := 0; i < len(seq); i++ {
		code := BaseIndex(seq[i])
		if code < 0 {
			return 0, fmt.Errorf("genome: invalid base %q", seq[i])
		}
		out |= code << uint(2*i)
	}
	return out, nil
}

// BaseEntropy returns the empirical Shannon entropy of the base
// distribution in bits (max 2 for uniform ACGT).
func BaseEntropy(seq string) float64 {
	var counts [4]float64
	total := 0.0
	for i := 0; i < len(seq); i++ {
		if c := BaseIndex(seq[i]); c >= 0 {
			counts[c]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// GCContent returns the fraction of G and C bases.
func GCContent(seq string) float64 {
	if len(seq) == 0 {
		return 0
	}
	gc := 0
	for i := 0; i < len(seq); i++ {
		if c := BaseIndex(seq[i]); c == 1 || c == 2 {
			gc++
		}
	}
	return float64(gc) / float64(len(seq))
}

// Read is one sequencing read with its true origin (for evaluation).
type Read struct {
	Seq    string
	Origin int // position in the reference the read was sampled from
}

// SampleReads draws reads of the given length from random reference
// positions, flipping each base to a random other base with probability
// errRate — the "inherent read errors in the sequence" of §3.2.
func SampleReads(reference string, readLen, count int, errRate float64, rng *rand.Rand) []Read {
	if readLen <= 0 || readLen > len(reference) {
		panic("genome: bad read length")
	}
	reads := make([]Read, count)
	for i := range reads {
		pos := rng.Intn(len(reference) - readLen + 1)
		seq := []byte(reference[pos : pos+readLen])
		for j := range seq {
			if rng.Float64() < errRate {
				// Substitute with one of the three other bases.
				cur := BaseIndex(seq[j])
				seq[j] = Bases[(cur+1+rng.Intn(3))%4]
			}
		}
		reads[i] = Read{Seq: string(seq), Origin: pos}
	}
	return reads
}

// Alignment is the result of aligning one read.
type Alignment struct {
	Position   int
	Mismatches int
	// Comparisons counts base-level comparisons (the classical work
	// metric for the quantum-vs-classical benchmarks).
	Comparisons int
}

// NaiveAlign scans every reference position and returns the one with the
// fewest mismatches (first on ties).
func NaiveAlign(reference, read string) Alignment {
	best := Alignment{Position: -1, Mismatches: len(read) + 1}
	comparisons := 0
	for pos := 0; pos+len(read) <= len(reference); pos++ {
		mism := 0
		for j := 0; j < len(read); j++ {
			comparisons++
			if reference[pos+j] != read[j] {
				mism++
				if mism >= best.Mismatches {
					break // early exit: cannot beat the current best
				}
			}
		}
		if mism < best.Mismatches {
			best.Mismatches = mism
			best.Position = pos
		}
	}
	best.Comparisons = comparisons
	return best
}

// Index is a k-mer hash index over the reference (the classical
// seed-and-extend baseline, in the spirit of BWA-style aligners the
// paper's group accelerated on FPGAs).
type Index struct {
	K         int
	Reference string
	seeds     map[string][]int
}

// BuildIndex indexes every k-mer of the reference.
func BuildIndex(reference string, k int) *Index {
	idx := &Index{K: k, Reference: reference, seeds: map[string][]int{}}
	for pos := 0; pos+k <= len(reference); pos++ {
		kmer := reference[pos : pos+k]
		idx.seeds[kmer] = append(idx.seeds[kmer], pos)
	}
	return idx
}

// Align seeds with the read's k-mers and verifies candidates, returning
// the best position (fewest mismatches).
func (idx *Index) Align(read string) Alignment {
	best := Alignment{Position: -1, Mismatches: len(read) + 1}
	comparisons := 0
	tried := map[int]bool{}
	for off := 0; off+idx.K <= len(read); off += idx.K {
		kmer := read[off : off+idx.K]
		for _, seedPos := range idx.seeds[kmer] {
			pos := seedPos - off
			if pos < 0 || pos+len(read) > len(idx.Reference) || tried[pos] {
				continue
			}
			tried[pos] = true
			mism := 0
			for j := 0; j < len(read); j++ {
				comparisons++
				if idx.Reference[pos+j] != read[j] {
					mism++
					if mism >= best.Mismatches {
						break
					}
				}
			}
			if mism < best.Mismatches {
				best.Mismatches = mism
				best.Position = pos
			}
		}
	}
	best.Comparisons = comparisons
	return best
}
