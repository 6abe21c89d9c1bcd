// Command perfbench runs experiment E2 (claim C2): the cross-tool
// performance comparison of §6.1, reproducing Fig 4a (PMDK 1.6: Mumak
// vs Agamotto vs XFDetector), Fig 4b (PMDK 1.8: Mumak vs PMDebugger vs
// Witcher) and the Table 2 resource columns.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/hashatomic"
	_ "mumak/internal/apps/rbtree"
	"mumak/internal/experiments"
	"mumak/internal/pmdk"
)

func main() {
	var (
		version = flag.String("pmdk", "1.6", "PMDK version to benchmark: 1.6 (Fig 4a) or 1.8 (Fig 4b)")
		ops     = flag.Int("ops", 15000, "workload size (the paper uses 150000)")
		budget  = flag.Duration("budget", 60*time.Second, "per-tool analysis budget (stands in for the paper's 12h)")
		memMB   = flag.Int("mem-mb", 2048, "per-tool memory budget in MiB (stands in for the machine's 256GB)")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()
	var ver pmdk.Version
	var title string
	switch *version {
	case "1.6":
		ver, title = pmdk.V16, "Analysis time and resources, PMDK 1.6 (Fig 4a + Table 2)"
	case "1.8":
		ver, title = pmdk.V18, "Analysis time and resources, PMDK 1.8 (Fig 4b + Table 2)"
	default:
		fmt.Fprintln(os.Stderr, "perfbench: -pmdk must be 1.6 or 1.8")
		os.Exit(2)
	}
	sc := experiments.Scale{Ops: *ops, Budget: *budget, MemBudget: uint64(*memMB) << 20, Seed: *seed}
	runs, err := experiments.Fig4(ver, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(experiments.RenderToolRuns(title, runs))
}
