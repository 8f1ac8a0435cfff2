// Quickstart: build the paper's 4 m classroom link, calibrate, and detect a
// person — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	"mlink"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The full scheme: subcarrier weighting (frequency diversity) plus
	// MUSIC path weighting (spatial diversity).
	sys, err := mlink.NewClassroomSystem(mlink.SchemeSubcarrierPath, 1)
	if err != nil {
		return err
	}

	// Calibration stage (§IV-C): record the empty room.
	fmt.Println("calibrating on the empty room...")
	if err := sys.Calibrate(300); err != nil {
		return err
	}
	fmt.Printf("threshold: %.4f\n", sys.Threshold())

	// Assess the link while we are at it: the mean multipath factor is the
	// paper's deployment-quality proxy.
	mu, _, err := sys.AssessLink(50)
	if err != nil {
		return err
	}
	fmt.Printf("link mean multipath factor: %.3f (≈1 ⇒ LOS-dominated, >1 ⇒ fade-prone)\n\n", mu)

	// Monitoring stage: 25-packet windows (0.5 s at the paper's 50 pkt/s).
	cases := []struct {
		name   string
		person *mlink.Person
	}{
		{"empty room", nil},
		{"person on the LOS (3,4)", &mlink.Person{X: 3, Y: 4}},
		{"person 1 m off the link (3,5)", &mlink.Person{X: 3, Y: 5}},
		{"empty again", nil},
	}
	for _, tc := range cases {
		dec, err := sys.DetectPresence(25, tc.person)
		if err != nil {
			return err
		}
		verdict := "clear"
		if dec.Present {
			verdict = "PRESENT"
		}
		fmt.Printf("%-32s → %-7s (score %.4f)\n", tc.name, verdict, dec.Score)
	}
	return nil
}
