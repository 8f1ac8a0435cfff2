// Command mlink-detect is the detector side of the distributed deployment:
// it connects to a csid stream, calibrates a static profile from the first
// frames, then prints a presence verdict per monitoring window.
//
// Usage:
//
//	mlink-detect -addr 127.0.0.1:5500 -scheme path -calibration 200 -window 25
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"mlink/internal/channel"
	"mlink/internal/core"
	"mlink/internal/csinet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func schemeOf(name string) (core.Scheme, error) {
	switch name {
	case "baseline":
		return core.SchemeBaseline, nil
	case "subcarrier":
		return core.SchemeSubcarrier, nil
	case "path":
		return core.SchemeSubcarrierPath, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (baseline|subcarrier|path)", name)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:5500", "csid address")
		schemeName = flag.String("scheme", "path", "detection scheme: baseline|subcarrier|path")
		calN       = flag.Int("calibration", 200, "calibration packets")
		window     = flag.Int("window", 25, "monitoring window packets")
		maxWindows = flag.Int("max-windows", 0, "stop after this many windows (0 = run forever)")
	)
	flag.Parse()

	scheme, err := schemeOf(*schemeName)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	client, err := csinet.Dial(ctx, *addr)
	cancel()
	if err != nil {
		return err
	}
	defer client.Close()

	hello := client.Hello()
	grid, err := channel.NewIntel5300Grid(hello.CenterFreqHz)
	if err != nil {
		return err
	}
	// Array geometry: λ/2 ULA as announced by the stream.
	lambda := 299792458.0 / hello.CenterFreqHz
	offsets := make([]float64, hello.NumAntennas)
	for m := range offsets {
		offsets[m] = (float64(m) - float64(len(offsets)-1)/2) * lambda / 2
	}
	cfg := core.DefaultConfig(grid, scheme, offsets)

	fmt.Printf("mlink-detect: calibrating %s from %d packets...\n", scheme, *calN)
	cal, err := client.RecvN(*calN)
	if err != nil {
		return fmt.Errorf("calibration recv: %w", err)
	}
	profile, err := core.Calibrate(cfg, cal)
	if err != nil {
		return err
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		return err
	}
	holdout, err := client.RecvN(*calN / 2)
	if err != nil {
		return fmt.Errorf("holdout recv: %w", err)
	}
	null, err := det.SelfScores(holdout, *window, *window)
	if err != nil {
		return err
	}
	threshold, err := det.CalibrateThreshold(null, core.ThresholdQuantile, core.DefaultThresholdMargin)
	if err != nil {
		return err
	}
	fmt.Printf("mlink-detect: threshold %.4f, monitoring (window %d packets)\n", threshold, *window)

	sc := core.NewScratch()
	for w := 0; *maxWindows == 0 || w < *maxWindows; w++ {
		frames, err := client.RecvN(*window)
		if err != nil {
			if errors.Is(err, io.EOF) {
				fmt.Println("mlink-detect: stream ended")
				return nil
			}
			return err
		}
		dec, err := det.DetectScratch(frames, sc)
		if err != nil {
			return err
		}
		status := "clear  "
		if dec.Present {
			status = "PRESENT"
		}
		fmt.Printf("window %4d  [%s]  score %.4f  (threshold %.4f)\n", w, status, dec.Score, dec.Threshold)
	}
	return nil
}
