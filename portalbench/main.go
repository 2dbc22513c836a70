// Command portalbench is the repository's end-to-end benchmark. It builds
// the FGCZ January-2010 population with the code under test, boots the
// unmodified cmd/bfabric binary as a child process on a durable data dir
// (-fsync always), and drives it over TCP with an open-loop generator
// that times every request from its due time and validates every
// response. With -trace 1 it instead reports per-layer numbers from a
// traced server and single-threaded layer replays. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash portalbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	if len(os.Args) > 1 {
		var err error
		handled := true
		switch os.Args[1] {
		case "fixture":
			fl := flag.NewFlagSet("fixture", flag.ExitOnError)
			dir := fl.String("dir", "", "data dir to generate into")
			man := fl.String("manifest", "", "manifest path")
			_ = fl.Parse(os.Args[2:])
			err = runFixture(*dir, *man)
		case "serve-traced":
			err = runTracedServer(os.Args[2:])
		case "replay":
			err = runReplay(os.Args[2:])
		default:
			handled = false
		}
		if handled {
			if err != nil {
				fmt.Fprintln(os.Stderr, "portalbench "+os.Args[1]+":", err)
				os.Exit(1)
			}
			return
		}
	}

	fl := flag.NewFlagSet("portalbench", flag.ExitOnError)
	wlName := fl.String("workload", "browse", "workload: browse, ingest or replica")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "length of the fixed-rate phase")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bfabric := fl.String("bfabric", "", "path to the built cmd/bfabric binary")
	work := fl.String("work", ".bench_build", "scratch directory inside the checkout")
	_ = fl.Parse(os.Args[1:])

	wl, ok := workloads[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "portalbench: unknown workload %q (have %v)\n", *wlName, workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(genProcs)
	guardChildren()
	code := 0
	func() {
		defer killAll()
		defer func() {
			if v := recover(); v != nil {
				fmt.Fprintf(os.Stderr, "portalbench: panic: %v\n%s", v, debug.Stack())
				code = 1
			}
		}()
		cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, bfabric: *bfabric, work: *work}
		if err := run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "portalbench:", err)
			code = 1
		}
	}()
	os.Exit(code)
}
