package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs this benchmark k times as child processes with seeds
// seed..seed+k-1 and prints, for every metric, the median, the
// quartiles and the spread (q3−q1)/median. A metric whose spread
// exceeds the bound the benchmark file gives it is flagged, and the
// command then fails. Comparing two commits is running this in a
// checkout of each.
func repeatRuns(k int, seed int64, benchFile string) error {
	if k < 4 {
		return fmt.Errorf("--repeat needs at least 4 runs for quartiles, got %d", k)
	}
	bounds, err := readBounds(benchFile)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var base []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" && f.Name != "benchmark" {
			base = append(base, "-"+f.Name+"="+f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < k; i++ {
		args := append(append([]string(nil), base...), "-seed="+strconv.FormatInt(seed+int64(i), 10))
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+int64(i), err)
		}
		s, err := lastSummary(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+int64(i), err)
		}
		for name, m := range s.Metrics {
			if _, seen := units[name]; !seen {
				names = append(names, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d done\n", i+1, k)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	flagged := 0
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := ratio(q3-q1, med)
		mark, boundText := "", "-"
		if b, ok := bounds[name]; ok {
			boundText = strconv.FormatFloat(b, 'g', -1, 64)
			if spread > b {
				mark = "  SPREAD > BOUND"
				flagged++
			}
		}
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %8.4f %6s%s\n", name, med, q1, q3, spread, boundText, mark)
	}
	if flagged > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", flagged)
	}
	return nil
}

// readBounds returns the end-to-end bounds of a benchmark file.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// lastSummary parses the JSON summary on the last line of a run's output.
func lastSummary(out []byte) (summary, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var s summary
	if err := json.Unmarshal(last, &s); err != nil {
		return summary{}, fmt.Errorf("no summary line: %w", err)
	}
	return s, nil
}

// quartiles returns q1, median and q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive). len(values) >= 4.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
