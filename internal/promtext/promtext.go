// Package promtext is a minimal reader for the Prometheus text exposition
// format (version 0.0.4) — just enough for lakectl top, its consumer, to
// read /debug/metrics endpoints without a client dependency; tests use it
// to read back what obs.Writer renders.
// It parses samples and ignores comments; histograms and summaries appear
// as their constituent series (name{quantile="..."}, name_sum, name_count).
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed metric line.
type Sample struct {
	Name   string
	Labels map[string]string // nil when the series is unlabeled
	Value  float64
}

// Label returns the value of one label, or "" when absent.
func (s Sample) Label(key string) string { return s.Labels[key] }

// Parse reads an exposition-format document and returns every sample in
// order. Comment lines (HELP and TYPE) and blank lines are skipped;
// a malformed sample line fails the whole parse.
func Parse(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("want 'name value', got %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	// A timestamp may trail the value; take the first field only.
	if f := strings.Fields(rest); len(f) > 0 {
		rest = f[0]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels decodes `k1="v1",k2="v2"`. Values may contain escaped quotes
// and backslashes per the exposition format.
func parseLabels(in string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(in) > 0 {
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label pair %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		in = in[eq+1:]
		if len(in) == 0 || in[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		in = in[1:]
		var val strings.Builder
		i := 0
		for ; i < len(in); i++ {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(in) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		in = strings.TrimSpace(in[i+1:])
		in = strings.TrimPrefix(in, ",")
		in = strings.TrimSpace(in)
	}
	return labels, nil
}
