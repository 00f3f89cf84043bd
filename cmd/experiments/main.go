// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	experiments [-run all|table1|figure4|figure5|table2..table7|sensitivity|efficiency|userstudy|ablation|stagereport|hierarchybakeoff|faultreport|overloadreport|resourceablation]
//	            [-full] [-docs N] [-seed N] [-workers N] [-hierarchy NAME] [-resources ...] [-out FILE]
//
// By default the datasets are scaled down (SNYT 1000 / SNB 3000 / MNYT
// 5000 documents) so a full regeneration finishes in minutes on a laptop;
// -full uses the paper's sizes (1000 / 17000 / 30000), and -docs N forces
// every profile to N documents (the CI smoke runs use a small N).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	facet "repro"
	"repro/internal/eval"
	"repro/internal/newsgen"
	"repro/internal/obsv"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "experiment to run (all, table1, figure4, figure5, table2..table7, sensitivity, efficiency, userstudy, ablation, stagereport, hierarchybakeoff, faultreport, overloadreport, resourceablation)")
	full := flag.Bool("full", false, "use the paper's full dataset sizes (17k/30k documents)")
	docs := flag.Int("docs", 0, "force every dataset profile to this many documents (0 = profile defaults; used by the CI bake-off smoke)")
	seed := flag.Uint64("seed", 42, "master seed")
	workers := flag.Int("workers", 0, "pipeline worker pool size for the stage report and hierarchy builders (0 = GOMAXPROCS)")
	hierarchyName := flag.String("hierarchy", "", "hierarchy builder for the stage report (registry name; \"\" = subsumption)")
	bench := flag.String("hierarchy-bench", "BENCH_hierarchy.json", "where hierarchybakeoff writes its bench trajectory (\"\" disables)")
	ablationBench := flag.String("ablation-bench", "BENCH_ablation.json", "where resourceablation writes its bench trajectory (\"\" disables)")
	resources := flag.String("resources", "", "context resource subset for the stage report (comma-separated; \"corpus\" selects the corpus-only distributional mode)")
	out := flag.String("out", "", "also write output to this file")
	csvDir := flag.String("csvdir", "", "also write each recall/precision table as CSV into this directory")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	cfg := runConfig{
		which:         *run,
		full:          *full,
		docs:          *docs,
		seed:          *seed,
		workers:       *workers,
		hierarchy:     *hierarchyName,
		benchPath:     *bench,
		ablationBench: *ablationBench,
		resources:     *resources,
		csvDir:        *csvDir,
	}
	if err := runAll(w, cfg); err != nil {
		log.Fatalf("experiments: %v", err)
	}
}

// runConfig carries the command-line knobs into runAll.
type runConfig struct {
	which         string
	full          bool
	docs          int
	seed          uint64
	workers       int
	hierarchy     string
	benchPath     string
	ablationBench string
	resources     string
	csvDir        string
}

// writeCSV stores a table as CSV under dir (no-op when dir is empty).
func writeCSV(dir, name string, table *eval.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(table.CSV()), 0o644)
}

func runAll(w io.Writer, cfg runConfig) error {
	which, seed, workers, csvDir := cfg.which, cfg.seed, cfg.workers, cfg.csvDir
	start := time.Now()
	lab, err := eval.NewLab(seed)
	if err != nil {
		return err
	}
	snytDocs, snbDocs, mnytDocs := 1000, 3000, 5000
	if cfg.full {
		snbDocs, mnytDocs = 17000, 30000
	}
	if cfg.docs > 0 {
		snytDocs, snbDocs, mnytDocs = cfg.docs, cfg.docs, cfg.docs
	}
	profiles := map[string]newsgen.Profile{
		"SNYT": newsgen.SNYT.WithDocs(snytDocs),
		"SNB":  newsgen.SNB.WithDocs(snbDocs),
		"MNYT": newsgen.MNYT.WithDocs(mnytDocs),
	}
	runs := map[string]*eval.DataRun{}
	runFor := func(name string) (*eval.DataRun, error) {
		if dr, ok := runs[name]; ok {
			return dr, nil
		}
		dr, err := lab.NewDataRun(profiles[name], seed+uint64(len(name)))
		if err != nil {
			return nil, err
		}
		runs[name] = dr
		return dr, nil
	}
	want := func(name string) bool { return which == "all" || which == name }

	section := func(title string) {
		fmt.Fprintf(w, "\n%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	}

	if want("table1") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Table I — Facets identified by annotators (pilot study, SNYT)")
		fmt.Fprintln(w, eval.PilotStudy(dr, 1000, 9, 2).Format())
	}
	if want("figure4") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Figure 4 — Most frequent annotator facet terms (>=2 agreement)")
		gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(1000))
		fmt.Fprintln(w, strings.Join(eval.Figure4(gt, 80), ", "))
	}
	if want("figure5") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Figure 5 — Subsumption baseline WITHOUT expansion (generic terms)")
		terms, _, err := eval.Figure5(dr, 25)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, strings.Join(terms, ", "))
	}
	recallTables := []struct{ exp, ds string }{
		{"table2", "SNYT"}, {"table3", "SNB"}, {"table4", "MNYT"},
	}
	for _, rt := range recallTables {
		if !want(rt.exp) {
			continue
		}
		dr, err := runFor(rt.ds)
		if err != nil {
			return err
		}
		section(fmt.Sprintf("%s — Recall (%s)", strings.Title(rt.exp), rt.ds))
		table, gt := eval.RecallTable(dr, eval.RecallConfig{})
		fmt.Fprintln(w, table.Format())
		if err := writeCSV(csvDir, rt.exp, table); err != nil {
			return err
		}
		fmt.Fprintf(w, "(ground truth: %d validated facet terms)\n", len(gt.Terms))
		if rt.ds == "SNYT" {
			fmt.Fprintf(w, "\nRecall by facet dimension (All x All):\n%s", eval.RecallByDimension(dr, gt).Format())
		}
	}
	precTables := []struct{ exp, ds string }{
		{"table5", "SNYT"}, {"table6", "SNB"}, {"table7", "MNYT"},
	}
	for _, pt := range precTables {
		if !want(pt.exp) {
			continue
		}
		dr, err := runFor(pt.ds)
		if err != nil {
			return err
		}
		section(fmt.Sprintf("%s — Precision (%s)", strings.Title(pt.exp), pt.ds))
		table, err := eval.PrecisionTable(dr, eval.PrecisionConfig{})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, table.Format())
		if err := writeCSV(csvDir, pt.exp, table); err != nil {
			return err
		}
	}
	if want("sensitivity") {
		section("Sensitivity — facet terms found vs. sample size (Section V-B)")
		for _, name := range []string{"SNYT", "SNB", "MNYT"} {
			dr, err := runFor(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s:\n%s\n", name, eval.FormatSensitivity(eval.Sensitivity(dr, nil)))
		}
	}
	if want("efficiency") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Efficiency — per-stage costs (Section V-D)")
		rep, err := eval.Efficiency(dr, 200)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Format())
	}
	if want("userstudy") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("User study — faceted vs. keyword interaction (Section V-E)")
		res, err := eval.UserStudy(dr, 150, seed+999)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	}
	if want("ablation") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Ablation — scoring statistic and shift gating (Section IV-C)")
		res, err := eval.Ablation(dr, 100)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	}
	if want("stagereport") {
		section("Stage report — runtime per-stage timing (StageReport)")
		if err := stageReport(w, seed, workers, cfg.hierarchy, cfg.resources); err != nil {
			return err
		}
	}
	if want("hierarchybakeoff") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Hierarchy bake-off — every registered builder vs. ground truth")
		bk, err := eval.HierarchyBakeoff(context.Background(), dr, eval.BakeoffOptions{TopK: 100, Workers: workers})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bk.Format())
		if cfg.benchPath != "" {
			data, err := json.MarshalIndent(bk.Bench(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(cfg.benchPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "(bench trajectory written to %s)\n", cfg.benchPath)
		}
	}
	if want("resourceablation") {
		dr, err := runFor("SNYT")
		if err != nil {
			return err
		}
		section("Resource ablation — what each context resource buys (corpus-only vs. external)")
		res, err := eval.ResourceAblation(context.Background(), dr, 100, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		if cfg.ablationBench != "" {
			data, err := json.MarshalIndent(res.Bench(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(cfg.ablationBench, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "(bench trajectory written to %s)\n", cfg.ablationBench)
		}
	}
	if want("faultreport") {
		section("Fault report — injected error rate vs. output stability and retry cost")
		if err := faultReport(w, seed, workers); err != nil {
			return err
		}
	}
	if want("overloadreport") {
		section("Overload report — goodput and admitted-request latency under 1x/3x/10x load")
		if err := overloadReport(w, seed); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nTotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// stageReport runs the public facade end to end with latency charging on
// and prints Result.StageReport() — the same per-stage numbers any
// library user gets — next to the virtual network time the environment
// accumulated, the runtime complement to the Section V-D cost model. The
// pipeline runs twice, sequentially (Workers=1) and sharded across the
// requested worker pool, and the report includes the per-stage parallel
// speedup; the two runs produce identical facets by construction.
func stageReport(w io.Writer, seed uint64, workers int, hierarchyBuilder, resources string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: seed, ChargeLatency: true})
	if err != nil {
		return err
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 300, seed+1)
	if err != nil {
		return err
	}
	runOnce := func(workers int) ([]facet.StageTiming, *obsv.Registry, error) {
		opts := facet.Options{Workers: workers, HierarchyBuilder: hierarchyBuilder}
		if resources != "" {
			opts.Resources = strings.Split(resources, ",")
		}
		sys, err := facet.NewSystem(env, opts)
		if err != nil {
			return nil, nil, err
		}
		reg := obsv.NewRegistry()
		sys.SetMetrics(reg)
		for _, d := range docs {
			sys.Add(d)
		}
		res, err := sys.ExtractFacets()
		if err != nil {
			return nil, nil, err
		}
		if _, err := res.BuildHierarchy(); err != nil {
			return nil, nil, err
		}
		return res.StageReport(), reg, nil
	}
	seq, _, err := runOnce(1)
	if err != nil {
		return err
	}
	par, parReg, err := runOnce(workers)
	if err != nil {
		return err
	}
	samples := make([]obsv.StageSample, 0, len(seq))
	for _, st := range seq {
		samples = append(samples, obsv.StageSample{Stage: st.Stage, Calls: st.Calls, Total: st.Total})
	}
	fmt.Fprintf(w, "sequential (workers=1):\n%s\n", obsv.FormatReport(samples))
	parByStage := make(map[string]time.Duration, len(par))
	for _, st := range par {
		parByStage[st.Stage] = st.Total
	}
	fmt.Fprintf(w, "parallel speedup (workers=%d):\n", workers)
	fmt.Fprintf(w, "%-20s  %12s  %12s  %8s\n", "stage", "sequential", "parallel", "speedup")
	var seqTotal, parTotal time.Duration
	for _, st := range seq {
		pt := parByStage[st.Stage]
		seqTotal += st.Total
		parTotal += pt
		speedup := "-"
		if pt > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(st.Total)/float64(pt))
		}
		fmt.Fprintf(w, "%-20s  %12s  %12s  %8s\n",
			st.Stage, st.Total.Round(time.Microsecond), pt.Round(time.Microsecond), speedup)
	}
	if parTotal > 0 {
		fmt.Fprintf(w, "%-20s  %12s  %12s  %7.2fx\n",
			"total", seqTotal.Round(time.Microsecond), parTotal.Round(time.Microsecond),
			float64(seqTotal)/float64(parTotal))
	}
	// Pair-pruning counters from the hierarchy sweep: the posting-list
	// candidate generator evaluates only co-occurring pairs, so on a
	// sparse corpus `evaluated` sits far below the all-pairs count the
	// dense formulation would sweep.
	snap := parReg.Snapshot()
	if n := snap.Gauges["hierarchy.sweep.terms"]; n > 0 {
		candidate := snap.Counters["hierarchy.pairs.candidate"]
		evaluated := snap.Counters["hierarchy.pairs.evaluated"]
		skipped := snap.Counters["hierarchy.pairs.skipped"]
		allPairs := n * (n - 1) / 2
		fmt.Fprintf(w, "\nhierarchy sweep pruning (%d terms, all-pairs baseline %d):\n", n, allPairs)
		fmt.Fprintf(w, "  hierarchy.pairs.candidate  %8d\n", candidate)
		fmt.Fprintf(w, "  hierarchy.pairs.evaluated  %8d\n", evaluated)
		fmt.Fprintf(w, "  hierarchy.pairs.skipped    %8d\n", skipped)
		if evaluated > 0 {
			fmt.Fprintf(w, "  reduction vs. all-pairs    %7.1fx\n", float64(allPairs)/float64(evaluated))
		}
	}

	fmt.Fprintf(w, "\nvirtual network time charged by the simulated services: %v\n",
		env.VirtualNetworkTime().Round(time.Microsecond))
	fmt.Fprintln(w, "(wall-clock stage totals above exclude virtual latency — the clock is charged, not slept)")
	return nil
}
