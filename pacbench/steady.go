package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutcome is the JSON last line of one run.
type runOutcome struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadiness runs each workload n times, on seeds 1..n, each run a fresh
// process as a user of the benchmark would start it, and compares the spread of
// every end-to-end metric — (q3 - q1) / median — with the bound
// BENCHMARK.json fixes for it. setup_s is exempt from the spread test
// (its median drift is what a later change is judged on), but is shown.
// A workload whose runs fail or fail their checks in more than half of
// the runs is reported as dropped.
func steadiness(ctx context.Context, n int, seconds float64, names []string, bin, work string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var cannot []string
	for _, w := range names {
		values := map[string][]float64{}
		var bad []string
		for s := 1; s <= n; s++ {
			args := []string{"-workload", w, "-seed", strconv.Itoa(s), "-seconds",
				strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-bin", bin, "-work", work}
			var out bytes.Buffer
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var ro runOutcome
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &ro)
			}
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("seed %d: %v", s, err))
				continue
			case !ro.Correct || ro.Failed > 0:
				bad = append(bad, fmt.Sprintf("seed %d: correct=%v failed=%d/%d", s, ro.Correct, ro.Failed, ro.Attempted))
				continue
			}
			for name, m := range ro.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("steady %s seed %d: done\n", w, s)
		}
		fmt.Printf("\nworkload %s: %d of %d runs usable\n", w, n-len(bad), n)
		for _, b := range bad {
			fmt.Println("  unusable run:", b)
		}
		if len(bad)*2 > n {
			cannot = append(cannot, fmt.Sprintf("workload %s dropped: %d of %d runs unusable", w, len(bad), n))
			continue
		}
		fmt.Printf("  %-22s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			vals := values[m.Name]
			q1, med, q3 := quartiles(vals)
			spread := ratio(q3-q1, med)
			verdict := "ok (under a third of the bound)"
			switch {
			case len(vals) == 0:
				verdict = "MISSING"
				cannot = append(cannot, fmt.Sprintf("%s/%s: not reported", w, m.Name))
			case m.Name == "setup_s":
				verdict = "exempt (judged by median drift)"
			case spread > m.Bound:
				verdict = "CANNOT HOLD"
				cannot = append(cannot, fmt.Sprintf("%s/%s: spread %.3f > bound %.2f", w, m.Name, spread, m.Bound))
			case spread > m.Bound/3:
				verdict = "within the bound, above a third of it"
			}
			fmt.Printf("  %-22s %12.5g %12.5g %12.5g %8.3f %6.2f  %s\n", m.Name, q1, med, q3, spread, m.Bound, verdict)
			fmt.Printf("  %22s %.5g\n", "runs:", vals)
		}
	}
	sort.Strings(cannot)
	fmt.Println()
	if len(cannot) == 0 {
		fmt.Println("steadiness: every end-to-end metric of every workload holds its bound")
		return nil
	}
	for _, c := range cannot {
		fmt.Println("steadiness:", c)
	}
	return nil
}
