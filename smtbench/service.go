package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/sweep"
	"smtsim/internal/sweepd"
)

// daemon is one sweepd instance over a fresh store behind a loopback
// listener.
type daemon struct {
	dir   string
	store *cellstore.Store
	srv   *sweepd.Server
	http  *httptest.Server
}

func (d *daemon) close() error {
	d.http.Close()
	return d.srv.Shutdown()
}

// startDaemons starts n daemons, each over a cold store of its own — a
// fresh directory where cellstore.Open has created an empty store — and
// times each from cellstore.Open through sweepd.New to a listening
// loopback server: the service workload's set-up. The stores are
// created before the burst, so the samples time the program's start-up
// rather than the host's file-system allocator, which on a shared disk
// varies several-fold from minute to minute. The daemons run on until
// the burst ends, so no sample carries another daemon's teardown.
func (e *env) startDaemons(n int, simulate func(cellstore.Spec) (smtsim.Result, error)) ([]*daemon, []float64, error) {
	dirs := make([]string, 0, n)
	for len(dirs) < n {
		dir, err := os.MkdirTemp(e.workdir, "service-")
		if err == nil {
			dirs = append(dirs, dir)
			_, err = cellstore.Open(dir)
		}
		if err != nil {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
			return nil, nil, err
		}
	}
	var ds []*daemon
	var times []float64
	for i, dir := range dirs {
		t0 := time.Now()
		st, err := cellstore.Open(dir)
		var srv *sweepd.Server
		if err == nil {
			srv, err = sweepd.New(sweepd.Config{Store: st, Workers: e.workers, Simulate: simulate})
		}
		if err != nil {
			for _, d := range ds {
				d.close()
				os.RemoveAll(d.dir)
			}
			for _, d := range dirs[i:] {
				os.RemoveAll(d)
			}
			return nil, nil, err
		}
		ds = append(ds, &daemon{dir: dir, store: st, srv: srv, http: httptest.NewServer(srv.Handler())})
		times = append(times, time.Since(t0).Seconds())
	}
	return ds, times, nil
}

// runService drives sweepd over fresh cellstores in blocks. Each block
// starts SetupReps daemons on cold stores (the set-up samples), keeps the
// last one, makes one cold pass over the Table-1 cells (every cell simulates and
// is Put) and then warm passes (every cell is a Get hit). Blocks spread
// each figure's samples over the whole run. The last store is reopened.
// Returns the median warm pass time.
func runService(e *env) float64 {
	specs, err := sweep.Table1Specs(sweep.Options{Budget: e.size.ServiceBudget, Seed: e.seed})
	if err != nil {
		e.op("Table1Specs", err)
		return 0
	}
	simulate := sweep.SimulateSpec
	if e.tr != nil {
		simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			cell := e.tr.NewCell()
			sp := e.tr.Begin("sweepd.simulate", 0, cell)
			defer e.tr.End(sp)
			return sweep.SimulateSpec(s)
		}
	}

	blocks := e.passes(e.size.ColdPassesPerS, 1)
	// The warm pass count is fixed by --seconds, so retained-sweep growth
	// (peak_rss_mb) does not depend on host speed.
	warmPerBlock := e.passes(e.size.WarmPassesPerS, 5*blocks) / blocks
	var setups, coldRates, warm, firsts []float64
	var cold []smtsim.Result
	var coldJSON []byte
	var simsCold, simsWarm int64
	var d *daemon
	var dir string // the last block's store
	for blk := 0; blk < blocks; blk++ {
		runtime.GC()
		ds, times, err := e.startDaemons(e.size.SetupReps, simulate)
		e.op("set-up", err)
		if err != nil {
			return 0
		}
		setups = append(setups, times...)
		// The last daemon serves the block; the others only timed set-up.
		d = ds[len(ds)-1]
		for _, o := range ds[:len(ds)-1] {
			e.op("shutdown", o.close())
			os.RemoveAll(o.dir)
		}
		var firstCell time.Time
		client := &sweepd.Client{Base: d.http.URL, HTTP: d.http.Client()}
		if e.tr != nil {
			client.Progress = func(string) {
				if firstCell.IsZero() {
					firstCell = time.Now()
				}
			}
		}

		sp := e.tr.Begin("sweepd.cold", 0, 0)
		t0 := time.Now()
		res, err := client.RunCells(specs)
		coldWall := time.Since(t0).Seconds()
		e.tr.End(sp)
		e.ops(len(specs), 0)
		if err != nil {
			e.failed += len(specs)
			fmt.Fprintf(e.out, "FAIL cold pass: %v\n", err)
			d.close()
			os.RemoveAll(d.dir)
			return 0
		}
		coldRates = append(coldRates, float64(len(specs))/coldWall)
		js, err := json.Marshal(res)
		if err == nil && blk > 0 && string(js) != string(coldJSON) {
			err = fmt.Errorf("cold pass %d differs from cold pass 0", blk)
		}
		e.op("cold pass results", err)
		if blk == 0 {
			cold, coldJSON = res, js
		}
		sims := d.srv.StatsSnapshot().Simulations
		var simErr error
		if sims != int64(len(specs)) {
			simErr = fmt.Errorf("cold pass %d simulated %d cells, want %d", blk, sims, len(specs))
		}
		e.op("cold pass simulates every cell once", simErr)
		if blk == 0 {
			simsCold = sims
		}

		for p := 0; p < warmPerBlock; p++ {
			firstCell = time.Time{}
			sp := e.tr.Begin("sweepd.warm", 0, 0)
			t0 := time.Now()
			res, err := client.RunCells(specs)
			dt := time.Since(t0)
			e.tr.End(sp)
			if err == nil {
				var js []byte
				if js, err = json.Marshal(res); err == nil && string(js) != string(coldJSON) {
					err = fmt.Errorf("warm pass %d differs from the cold pass", p)
				}
			}
			e.op("warm pass", err)
			warm = append(warm, dt.Seconds())
			if !firstCell.IsZero() {
				firsts = append(firsts, firstCell.Sub(t0).Seconds())
			}
		}
		fmt.Fprintf(e.out, "  block %d: cold %.0f cells/s, warm p50 %.2f ms\n", blk, coldRates[len(coldRates)-1], 1e3*median(warm[len(warm)-warmPerBlock:]))
		simsWarm += d.srv.StatsSnapshot().Simulations - sims
		e.op("shutdown", d.close())
		if blk < blocks-1 {
			os.RemoveAll(d.dir)
		}
		dir, d = d.dir, nil
	}
	defer os.RemoveAll(dir)
	var warmErr error
	if simsWarm != 0 {
		warmErr = fmt.Errorf("%d cells simulated on warm passes", simsWarm)
	}
	e.op("warm passes simulate nothing", warmErr)

	// Reopen: cellstore.Open scanning the populated shards.
	t0 := time.Now()
	st, err := cellstore.Open(dir)
	openDur := time.Since(t0)
	if err == nil && st.Len() != len(specs) {
		err = fmt.Errorf("reopened store holds %d cells, want %d", st.Len(), len(specs))
	}
	e.op("reopen", err)

	// Checks: every cell equals in-process SimulateSpec; the whole set
	// against the stored digest.
	for i, s := range specs {
		r, err := sweep.SimulateSpec(s)
		if err == nil {
			a, _ := json.Marshal(r)
			b, _ := json.Marshal(cold[i])
			if string(a) != string(b) {
				err = fmt.Errorf("cell %s differs from in-process SimulateSpec", s.Key())
			}
		}
		e.op("in-process cell", err)
	}
	e.checkDigest(e.digestKey("service"), sha(coldJSON))

	if e.tr == nil {
		e.put("setup_s", median(setups), "s")
		e.put("pass_s", median(warm), "s")
		e.put("cold_cells_per_s", median(coldRates), "1/s")
		e.put("warm_cells_per_s", float64(len(specs))/median(warm), "1/s")
		e.put("warm_sweep_ms_p50", percentile(warm, 50)*1e3, "ms")
		e.put("warm_sweep_ms_p95", percentile(warm, 95)*1e3, "ms")
		e.put("cellstore.open_ms", openDur.Seconds()*1e3, "ms")
		fmt.Fprintf(e.out, "  (%d cells; %d blocks; %d warm sweep samples; pass is a warm sweep)\n", len(specs), blocks, len(warm))
		return median(warm)
	}

	e.put("cellstore.open_ms", openDur.Seconds()*1e3, "ms")
	e.put("sweepd.first_cell_ms_p50", percentile(firsts, 50)*1e3, "ms")
	e.put("sweepd.simulations_cold", float64(simsCold), "count")
	e.put("sweepd.simulations_warm", float64(simsWarm), "count")
	e.storeProbe(specs, cold)
	return median(warm)
}

// storeProbe times the store calls sweepd makes, one at a time on a
// fresh store: Spec.Key, Put of every cold result, Get of every key.
func (e *env) storeProbe(specs []cellstore.Spec, res []smtsim.Result) {
	dir, err := os.MkdirTemp(e.workdir, "store-")
	if err != nil {
		e.op("probe dir", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := cellstore.Open(dir)
	if err != nil {
		e.op("probe open", err)
		return
	}
	var keyT, putT, getT []float64
	keys := make([]string, len(specs))
	for i, s := range specs {
		sp := e.tr.Begin("cellstore.key", 0, 0)
		t0 := time.Now()
		keys[i] = s.Key()
		keyT = append(keyT, time.Since(t0).Seconds())
		e.tr.End(sp)

		sp = e.tr.Begin("cellstore.put", 0, 0)
		t0 = time.Now()
		h, err := st.Put(s, res[i])
		putT = append(putT, time.Since(t0).Seconds())
		e.tr.End(sp)
		if err == nil && h != keys[i] {
			err = fmt.Errorf("Put returned hash %s, Key %s", h, keys[i])
		}
		e.op("put", err)
	}
	for i, k := range keys {
		sp := e.tr.Begin("cellstore.get", 0, 0)
		t0 := time.Now()
		r, ok, err := st.Get(k)
		getT = append(getT, time.Since(t0).Seconds())
		e.tr.End(sp)
		if err == nil && !ok {
			err = fmt.Errorf("Get missed %s", k)
		}
		if err == nil {
			a, _ := json.Marshal(r)
			b, _ := json.Marshal(res[i])
			if string(a) != string(b) {
				err = fmt.Errorf("Get returned a different result for %s", k)
			}
		}
		e.op("get", err)
	}
	e.put("cellstore.spec_key_us", median(keyT)*1e6, "us")
	e.put("cellstore.put_us_p50", percentile(putT, 50)*1e6, "us")
	e.put("cellstore.get_us_p50", percentile(getT, 50)*1e6, "us")
}
