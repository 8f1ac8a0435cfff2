// Command mlink-detect is the detector side of the distributed deployment:
// it connects to a csid stream, calibrates a static profile from the first
// frames, then prints a presence verdict per monitoring window. The stream
// feeds a one-link monitoring engine (internal/engine), so calibration and
// scoring are the ones mlink-serve runs.
//
// Usage:
//
//	mlink-detect -addr 127.0.0.1:5500 -scheme path -calibration 200 -window 25
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mlink/internal/channel"
	"mlink/internal/core"
	"mlink/internal/csinet"
	"mlink/internal/engine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mlink-detect", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:5500", "csid address")
		schemeName = fs.String("scheme", "path", "detection scheme: baseline|subcarrier|path")
		calN       = fs.Int("calibration", 200, "calibration packets (as many again are held out to set the threshold)")
		window     = fs.Int("window", 25, "monitoring window packets")
		maxWindows = fs.Int("max-windows", 0, "stop after this many windows (0 = run forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		return err
	}

	src := csinet.Redial(*addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = src.Connect(ctx)
	cancel()
	if err != nil {
		return err
	}
	defer src.Close()

	hello := src.Hello()
	grid, err := channel.NewIntel5300Grid(hello.CenterFreqHz)
	if err != nil {
		return err
	}
	if err := checkHello(hello, grid); err != nil {
		return err
	}
	// Array geometry: λ/2 ULA as announced by the stream.
	lambda := 299792458.0 / hello.CenterFreqHz
	offsets := make([]float64, hello.NumAntennas)
	for m := range offsets {
		offsets[m] = (float64(m) - float64(len(offsets)-1)/2) * lambda / 2
	}
	cfg := core.DefaultConfig(grid, scheme, offsets)

	// One link, so every scored window closes a fusion round. The engine
	// stays unsupervised: a clean close by csid ends the link and Run.
	windows := 0
	e := engine.New(engine.Config{
		WindowSize: *window,
		OnRound: func(v *engine.SiteVerdict) {
			for _, d := range v.Links {
				status := "clear  "
				if d.Present {
					status = "PRESENT"
				}
				fmt.Fprintf(out, "window %4d  [%s]  score %.4f  (threshold %.4f)\n", windows, status, d.Score, d.Threshold)
			}
			windows++
		},
	})
	if err := e.AddLink(*addr, cfg, src); err != nil {
		return err
	}

	fmt.Fprintf(out, "mlink-detect: calibrating %s from %d packets...\n", scheme, *calN)
	if err := e.Calibrate(context.Background(), *calN); err != nil {
		return err
	}
	fmt.Fprintf(out, "mlink-detect: threshold %.4f, monitoring (window %d packets)\n", e.Metrics().PerLink[0].Threshold, *window)

	if err := e.Run(context.Background(), *maxWindows); err != nil {
		return err
	}
	if *maxWindows == 0 || windows < *maxWindows {
		fmt.Fprintln(out, "mlink-detect: stream ended")
	}
	return nil
}

// checkHello rejects a stream whose Hello announces frames the detector
// cannot score: no antennas, or subcarriers other than grid's.
func checkHello(h csinet.Hello, grid *channel.Grid) error {
	if h.NumAntennas == 0 {
		return fmt.Errorf("hello announces no antennas")
	}
	if int(h.NumSubcarriers) != grid.Len() || len(h.Indices) != grid.Len() {
		return fmt.Errorf("hello announces %d subcarriers, the detector's grid has %d", h.NumSubcarriers, grid.Len())
	}
	for i, idx := range h.Indices {
		if int(idx) != grid.Indices[i] {
			return fmt.Errorf("hello subcarrier %d has index %d, the detector's grid %d", i, idx, grid.Indices[i])
		}
	}
	return nil
}
