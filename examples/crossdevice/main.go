// Crossdevice reproduces the Table-2 phenomenon at small scale: a model
// trained on one device type loses accuracy on every other device type, and
// the loss is smallest between similar devices (Pixel5 ↔ Pixel2).
//
//	go run ./examples/crossdevice
package main

import (
	"fmt"
	"log"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
)

func main() {
	opts := experiments.DefaultOptions()
	opts.Seed = 11

	fmt.Println("capturing shared scenes with all devices...")
	dd, err := experiments.BuildDeviceData(opts, 6, 3, dataset.ModeProcessed)
	if err != nil {
		log.Fatal(err)
	}

	// Train one model per source device, evaluate on three targets.
	sources := []string{"Pixel5", "S9", "G4"}
	targets := []string{"Pixel5", "Pixel2", "S9", "S6", "G4"}
	builder := experiments.SimpleCNNBuilder(opts.Seed, dd.Classes)

	fmt.Printf("\n%-8s", "train\\test")
	for _, tg := range targets {
		fmt.Printf("  %8s", tg)
	}
	fmt.Println()
	for _, src := range sources {
		si := dd.DeviceIndex(src)
		net := builder()
		net.SetIntraOp(opts.IntraOpBudget()) // the evaluation below runs the frozen forward
		experiments.TrainCentralized(net, dd.Train[si], 20, frand.New(opts.Seed))
		fmt.Printf("%-8s", src)
		for _, tg := range targets {
			ti := dd.DeviceIndex(tg)
			acc := metrics.Accuracy(net, dd.Test[ti], 16)
			fmt.Printf("  %7.1f%%", acc*100)
		}
		fmt.Println()
	}
	fmt.Println("\nDiagonal entries are highest; Pixel5-trained models transfer best to Pixel2.")
}
