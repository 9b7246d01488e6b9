package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pipelayer/internal/dataset"
	"pipelayer/internal/fault"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/online"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
)

// onlineFlags collects the -online mode knobs (registered in main).
type onlineFlags struct {
	dir             string
	snapshotEvery   int
	roundImages     int
	tolerance       float64
	maxRegressions  int
	keepCheckpoints int
}

// runOnline serves the train-while-serve supervisor over HTTP: the network
// keeps learning from the synthetic stream in the background, and every
// promoted version hot-swaps into the serving replicas without dropping a
// request. Ctrl-C stops training first, then drains serving.
func runOnline(spec networks.Spec, serveCfg serve.Config, of onlineFlags, tc trainConfig,
	reg *telemetry.Registry, rec *flight.Recorder, inj *fault.Injector,
	addr string, timeout time.Duration) error {

	flat := spec.Layers[0].Kind == mapping.KindFC
	cfg := online.Config{
		Spec:            spec,
		Seed:            tc.seed,
		Dir:             of.dir,
		Eval:            dataset.Generate(tc.testImages, dataset.DefaultOptions(flat), tc.seed+1),
		Serve:           serveCfg,
		Batch:           tc.batch,
		RoundImages:     of.roundImages,
		LR:              tc.lr,
		SnapshotEvery:   of.snapshotEvery,
		Tolerance:       of.tolerance,
		MaxRegressions:  of.maxRegressions,
		KeepCheckpoints: of.keepCheckpoints,
		Metrics:         reg,
		Flight:          rec,
		Faults:          inj,
	}
	sup, err := online.New(online.NewSyntheticFeed(flat, tc.seed), cfg)
	if err != nil {
		return err
	}
	if sup.Resumed() {
		fmt.Printf("resume    : restored v%d from %s (newest valid checkpoint)\n", sup.Version(), of.dir)
	} else {
		fmt.Printf("coldstart : initial weights saved as v1 in %s\n", of.dir)
	}
	fmt.Printf("baseline  : eval accuracy %.1f%% on %d held-out samples\n",
		100*sup.BaselineAccuracy(), len(cfg.Eval))
	if err := sup.Start(); err != nil {
		sup.Close()
		return err
	}

	s := sup.Server()
	srv := newHTTPServer(addr, s.Handler(timeout), timeout)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving   : http://%s/predict (healthz at /healthz), %d-element inputs, online training on\n",
		addr, s.InputSize())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		sup.Close()
		return err
	case <-sig:
	}
	fmt.Println("draining  : stopping trainer, flushing in-flight batches")
	if err := sup.Close(); err != nil {
		return err
	}
	if err := sup.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "trainer   : %v\n", err)
	}
	fmt.Printf("shutdown  : served v%d after %d rounds, %d promotions, %d rollbacks (health %s)\n",
		sup.Version(), sup.Rounds(), sup.Promotions(), sup.Rollbacks(), sup.Health())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
