package compiler

import (
	"fmt"
	"strconv"
	"strings"
)

// PassOptions are the per-pass parameters of one pass-spec entry, e.g.
// the {"lookahead": "8", "strategy": "noise"} of "map(lookahead=8,
// strategy=noise)". Keys and values are strings at the spec layer;
// passes interpret them with the typed getters.
type PassOptions map[string]string

// String returns the option value, or def when absent.
func (o PassOptions) String(key, def string) string {
	if v, ok := o[key]; ok {
		return v
	}
	return def
}

// Int parses the option as an integer, def when absent.
func (o PassOptions) Int(key string, def int) (int, error) {
	v, ok := o[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("option %s=%q is not an integer", key, v)
	}
	return n, nil
}

// Bool parses the option as a boolean ("true"/"false"/"1"/"0"), def when
// absent.
func (o PassOptions) Bool(key string, def bool) (bool, error) {
	v, ok := o[key]
	if !ok {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("option %s=%q is not a boolean", key, v)
	}
	return b, nil
}

// SpecEntry is one parsed pass-spec element: a pass name, its options,
// and where in the spec string it started (for error reporting).
type SpecEntry struct {
	Name    string
	Options PassOptions
	// Pos is the zero-based byte offset of the entry's name in the spec.
	Pos int
}

// SpecError is a pass-spec syntax or resolution error carrying the
// offending position, so a malformed spec — "map(", "map(x=)", a
// duplicated option key — is rejected at parse time with an exact
// location instead of failing mid-compile.
type SpecError struct {
	Spec string
	Pos  int // zero-based byte offset into Spec
	Msg  string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("compiler: pass spec %q: col %d: %s", e.Spec, e.Pos+1, e.Msg)
}

func specErr(spec string, pos int, format string, args ...any) error {
	return &SpecError{Spec: spec, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ParseSpec tokenises a pass spec — comma-separated entries of the form
// name or name(key=value,...) — without consulting the pass table.
// Whitespace around names, keys and values is ignored. All syntax errors
// carry the spec position (see SpecError).
func ParseSpec(spec string) ([]SpecEntry, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, specErr(spec, 0, "empty pass spec (available passes: %s)",
			strings.Join(PassNames(), ", "))
	}
	var entries []SpecEntry
	i := 0
	for {
		// One entry: name [ '(' options ')' ].
		start := skipSpace(spec, i)
		nameEnd := start
		for nameEnd < len(spec) && spec[nameEnd] != ',' && spec[nameEnd] != '(' && spec[nameEnd] != ')' && spec[nameEnd] != '=' {
			nameEnd++
		}
		name := strings.TrimSpace(spec[start:nameEnd])
		if name == "" {
			return nil, specErr(spec, start, "empty pass name")
		}
		if nameEnd < len(spec) && (spec[nameEnd] == ')' || spec[nameEnd] == '=') {
			return nil, specErr(spec, nameEnd, "unexpected %q after pass name %q", string(spec[nameEnd]), name)
		}
		entry := SpecEntry{Name: name, Pos: start}
		i = nameEnd
		if i < len(spec) && spec[i] == '(' {
			opts, next, err := parseOptions(spec, i+1, name)
			if err != nil {
				return nil, err
			}
			entry.Options = opts
			i = next
		}
		entries = append(entries, entry)
		i = skipSpace(spec, i)
		if i >= len(spec) {
			break
		}
		if spec[i] != ',' {
			return nil, specErr(spec, i, "expected ',' after pass %q, found %q", name, string(spec[i]))
		}
		i++
	}
	return entries, nil
}

// parseOptions parses "key=value, key=value)" starting just past the
// opening parenthesis, returning the options and the index past ')'.
func parseOptions(spec string, i int, pass string) (PassOptions, int, error) {
	open := i - 1
	opts := PassOptions{}
	for {
		i = skipSpace(spec, i)
		if i >= len(spec) {
			return nil, 0, specErr(spec, open, "unterminated option list for pass %q", pass)
		}
		if spec[i] == ')' {
			// Allow "name()" and a trailing comma before ')'.
			return opts, i + 1, nil
		}
		keyStart := i
		for i < len(spec) && spec[i] != '=' && spec[i] != ',' && spec[i] != ')' {
			i++
		}
		key := strings.TrimSpace(spec[keyStart:i])
		if i >= len(spec) {
			return nil, 0, specErr(spec, open, "unterminated option list for pass %q", pass)
		}
		if spec[i] != '=' {
			return nil, 0, specErr(spec, keyStart, "option %q of pass %q missing '='", key, pass)
		}
		if key == "" {
			return nil, 0, specErr(spec, keyStart, "empty option key for pass %q", pass)
		}
		i++ // past '='
		valStart := i
		for i < len(spec) && spec[i] != ',' && spec[i] != ')' {
			i++
		}
		val := strings.TrimSpace(spec[valStart:i])
		if i >= len(spec) {
			return nil, 0, specErr(spec, open, "unterminated option list for pass %q", pass)
		}
		if val == "" {
			return nil, 0, specErr(spec, valStart, "empty value for option %q of pass %q", key, pass)
		}
		if _, dup := opts[key]; dup {
			return nil, 0, specErr(spec, keyStart, "duplicate option %q for pass %q", key, pass)
		}
		opts[key] = val
		if spec[i] == ',' {
			i++
		}
	}
}

func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
		i++
	}
	return i
}

// BoundPass is a built-in pass bound to the options of one spec entry.
type BoundPass struct {
	Pass    Pass
	Options PassOptions
}

// ResolveSpec parses a pass spec and resolves every entry against the
// built-in passes, validating each entry's options at parse time so
// unknown keys and malformed values are rejected before any compilation
// starts (and, in qserv, at job submission with a 400). Errors carry the
// spec position.
func ResolveSpec(spec string) ([]BoundPass, error) {
	entries, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	bound := make([]BoundPass, 0, len(entries))
	for _, e := range entries {
		p := lookupPass(e.Name)
		if p == nil {
			return nil, specErr(spec, e.Pos, "unknown pass %q (available: %s)",
				e.Name, strings.Join(PassNames(), ", "))
		}
		if len(e.Options) > 0 {
			if p.check == nil {
				return nil, specErr(spec, e.Pos, "pass %q takes no options", e.Name)
			}
			if err := p.check(e.Options); err != nil {
				return nil, specErr(spec, e.Pos, "pass %q: %v", e.Name, err)
			}
		}
		bound = append(bound, BoundPass{Pass: p, Options: e.Options})
	}
	return bound, nil
}
