package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by
// label values, histograms expanded to cumulative _bucket/_sum/_count
// series. OnCollect hooks run first, so scrape-time mirrors are fresh.
// The output is deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	for _, fn := range collectors {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry over HTTP in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ParseText reads a text exposition, as WritePrometheus writes it, into
// a map from each sample's series to its value. A series is the sample's
// name and label set exactly as exposed, escapes included:
// `qserv_jobs_completed_total{backend="perfect",status="done"}`. Comment
// and blank lines are skipped; a malformed sample line fails with its
// line number.
func ParseText(r io.Reader) (map[string]float64, error) {
	samples := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, v, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", n, err)
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return samples, nil
}

// parseSample splits one `series value` sample line.
func parseSample(line string) (string, float64, error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 || !metricName.MatchString(line[:end]) {
		return "", 0, fmt.Errorf("bad sample %q: want name[{labels}] value", line)
	}
	if line[end] == '{' {
		n, err := labelSetLen(line[end:])
		if err != nil {
			return "", 0, fmt.Errorf("bad label set in %q: %w", line, err)
		}
		end += n
	}
	value, ok := strings.CutPrefix(line[end:], " ")
	if !ok {
		return "", 0, fmt.Errorf("bad sample %q: no value after the series", line)
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad sample value in %q: %w", line, err)
	}
	return line[:end], v, nil
}

// labelSetLen returns the length of the {k="v",...} label set that s
// starts with, checking label names, quoting and escapes.
func labelSetLen(s string) (int, error) {
	i := 1
	for i < len(s) && s[i] != '}' {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || !labelName.MatchString(s[i:i+eq]) {
			return 0, errors.New("bad label name")
		}
		i += eq + 1
		if i == len(s) || s[i] != '"' {
			return 0, errors.New("unquoted label value")
		}
		for i++; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				i++
				if i == len(s) || !strings.ContainsRune(`\"n`, rune(s[i])) {
					return 0, errors.New("bad escape in label value")
				}
			}
		}
		if i++; i < len(s) && s[i] == ',' {
			i++
		} else if i < len(s) && s[i] != '}' {
			return 0, errors.New("labels not comma-separated")
		}
	}
	if i == len(s) {
		return 0, errors.New("unterminated label set")
	}
	return i + 1, nil
}

// Sum adds up the samples of family name whose label sets hold every
// given pair, each written as exposed (`status="done"`). With no pairs
// it sums the whole family; series of longer names sharing the prefix
// (a histogram's _bucket, say) never count. Series are summed in sorted
// order so the float result is reproducible.
func Sum(samples map[string]float64, name string, pairs ...string) float64 {
	var sum float64
next:
	for _, series := range slices.Sorted(maps.Keys(samples)) {
		labels, ok := strings.CutPrefix(series, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		set := "," + strings.Trim(labels, "{}") + ","
		for _, p := range pairs {
			if !strings.Contains(set, ","+p+",") {
				continue next
			}
		}
		sum += samples[series]
	}
	return sum
}

func (f *family) write(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	if f.fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
		return err
	}
	f.mu.Lock()
	children := make([]*metric, 0, len(f.children))
	for _, m := range f.children {
		children = append(children, m)
	}
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].labelValues, "\xff") < strings.Join(children[j].labelValues, "\xff")
	})
	for _, m := range children {
		if err := f.writeChild(w, m); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChild(w io.Writer, m *metric) error {
	if f.typ != typeHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labels, m.labelValues, "", ""),
			formatFloat(math.Float64frombits(m.bits.Load())))
		return err
	}
	var cum uint64
	for i, bound := range m.buckets {
		cum += m.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, m.labelValues, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += m.counts[len(m.buckets)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelString(f.labels, m.labelValues, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelString(f.labels, m.labelValues, "", ""),
		formatFloat(math.Float64frombits(m.sumBits.Load()))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelString(f.labels, m.labelValues, "", ""), cum)
	return err
}

// labelString renders a {k="v",...} label set, appending the extra pair
// (the histogram "le" bound) when extraKey is non-empty. Empty label
// sets render as nothing.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
