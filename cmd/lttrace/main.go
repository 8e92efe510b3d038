// Command lttrace generates and inspects binary reference traces in the
// indexed LTCX store format of internal/trace, the repository's one trace
// file format (DESIGN.md §10).
//
// Usage:
//
//	lttrace -bench mcf -scale small -out mcf.ltcx   # generate a store
//	lttrace -in mcf.ltcx                            # replay and summarize
//	lttrace -in mcf.ltcx -head 20                   # dump the first records
//
// -out writes are crash-safe: the store is staged in a temp file,
// fsynced, and atomically renamed over -out (internal/atomicfile), so an
// interrupted run leaves either the complete old file or the complete
// new one — never a torn store. The persistent experiment cache
// (DESIGN.md §12) relies on the same path for its traces tier.
//
// -in maps the store and replays it through one zero-alloc cursor. Every
// read checks the whole file: a record that does not decode fails the
// run, and so do replayed stream statistics that differ from the ones
// recorded in the store's header.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lttrace:", err)
	os.Exit(1)
}

func main() {
	var (
		bench = flag.String("bench", "", "benchmark preset to generate")
		scale = flag.String("scale", "small", "workload scale")
		seed  = flag.Uint64("seed", 1, "workload seed")
		out   = flag.String("out", "", "output trace store")
		in    = flag.String("in", "", "input trace store")
		stats = flag.Bool("stats", false, "print stream statistics")
		head  = flag.Int("head", 0, "dump the first N records")
	)
	showVersion := buildinfo.VersionFlag("lttrace")
	flag.Parse()
	showVersion()

	switch {
	case *bench != "" && *out != "":
		p, ok := workload.ByName(*bench)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q", *bench))
		}
		sc, err := workload.ParseScale(*scale)
		if err != nil {
			fail(err)
		}
		m := trace.Materialize(p.Source(sc, *seed))
		if err := m.WriteFile(*out); err != nil {
			fail(err)
		}
		fi, err := os.Stat(*out)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d refs to %s (%d bytes, %.2f bytes/ref, %d chunks x %d refs)\n",
			m.Refs(), *out, fi.Size(), float64(m.Bytes())/float64(max(m.Refs(), 1)),
			m.Chunks(), m.RefsPerChunk())

	case *in != "":
		m, err := trace.OpenStore(*in)
		if err != nil {
			fail(err)
		}
		defer m.Close()
		fmt.Printf("store: %d refs, %d chunks x %d refs, %d data bytes, mapped=%v\n",
			m.Refs(), m.Chunks(), m.RefsPerChunk(), m.Bytes(), m.Mapped())
		c := m.Cursor()
		var st trace.Stats
		n := 0
		trace.ForEach(c, func(ref trace.Ref) {
			st.Observe(ref)
			if n < *head {
				fmt.Printf("%8d pc=%#x addr=%#x %s gap=%d dep=%v ctx=%d\n",
					n, uint64(ref.PC), uint64(ref.Addr), ref.Kind, ref.Gap, ref.Dep, ref.Ctx)
			}
			n++
		})
		if err := c.Err(); err != nil {
			fail(fmt.Errorf("%s: %w", *in, err))
		}
		if st != m.Stats() {
			fail(fmt.Errorf("%s: replayed stats %+v differ from header %+v (corrupt store?)", *in, st, m.Stats()))
		}
		if *stats || *head == 0 {
			fmt.Printf("refs=%d loads=%d stores=%d instrs=%d deps=%d\n",
				st.Refs, st.Loads, st.Stores, st.Instrs, st.Deps)
		}

	default:
		fmt.Fprintln(os.Stderr, "lttrace: need either -bench+-out (generate a store) or -in (replay one)")
		os.Exit(2)
	}
}
