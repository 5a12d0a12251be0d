// ECGFL demonstrates the non-vision use of HeteroSwitch (§6.6): federated
// heart-rate regression across four ECG sensor types, with the
// Random-Gaussian-Filter transformation standing in for the vision ISP
// transformation. It runs the ECG harness at scale 0.8 (160 windows per
// sensor, 120 rounds), so its table is `heterobench -exp ecg -scale 0.8
// -seed 17`'s.
//
//	go run ./examples/ecgfl
package main

import (
	"fmt"
	"log"

	"heteroswitch/internal/experiments"
)

func main() {
	opts := experiments.DefaultOptions()
	opts.Seed, opts.Scale = 17, 0.8
	res, err := experiments.ECG(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
}
