// Package heteroswitch is a from-scratch Go reproduction of "HeteroSwitch:
// Characterizing and Taming System-Induced Data Heterogeneity in Federated
// Learning" (Kim et al., MLSys 2024): simulated phones whose sensors and ISPs
// make the same scenes into heterogeneous data, federated training over them
// with the paper's baselines and HeteroSwitch, one harness per table and
// figure, and a serving stack on the frozen inference path.
//
// Each package's own doc states its design. This map gives each one's role
// and the test that pins its contract.
//
//	internal/scene       latent scenes every device photographs   TestRenderDeterministic
//	internal/camera      sensor hardware: scene to RAW frame       TestExposeMatchesCapture
//	internal/isp         the six Table-3 ISP stages                TestProcessMatchesOracleOnDirtyScratch
//	internal/device      Table-1 phones: sensor, ISP, vendor tune  TestProfilesTableOne
//	internal/dataset     capture loop, splits, batches, clients    TestCaptureDevicesMatchesPerDeviceLoops
//	internal/flair       the FLAIR-substitute workload (§6.4)      TestBuildDeterministic
//	internal/ecg         the ECG workload (§6.6)                   TestRecordDeterministic
//	internal/tensor      tensors, arena, matmul and conv kernels   TestTiledMatMulMatchesReference
//	internal/vec         AVX2 forms of those kernels               TestVecMatchesGeneric
//	internal/nn          layers, losses, SGD, frozen inference     TestFrozenEquivalence
//	internal/models      the five architectures                    TestPinnedTrainingBytes
//	internal/parallel    worker pool and fixed range splits        TestChunksPartition
//	internal/fl          aggregation core, two drivers, baselines  TestAsyncZeroLatencyMatchesSyncStreaming
//	internal/core        HeteroSwitch (§5)                         TestPinnedAggregationBytes
//	internal/simclock    virtual-time event heap, latency models   TestClockTieBreaksByID
//	internal/faults      seeded client fault models                TestDrawsAreDeterministicAndSeedSensitive
//	internal/metrics     accuracy, variance, worst case, AP        TestMeanVarianceWorst
//	internal/serve       version store, batcher, load harness      TestPinnedSimReports
//	internal/experiments run options and one harness per result    TestBuildDeviceDataDigestPinned
//	internal/frand       the seeded splittable RNG                 TestSplitNamedStable
//	internal/guardmem    slices that end at an unmapped page       TestVecGemmStaysInsideSlices
//	internal/israce      whether the build has -race               TestFrozenAllocFree
//	internal/vectest     the vec.Live switch for parity tests      TestPlainRunHoldsNaNPayloads
//
// Entry points:
//
//	cmd/heterobench      regenerates a paper table or figure       TestRegistryNames
//	cmd/flsim            one federated simulation                  TestSharedFlagsAreDeclaredOnce
//	cmd/flserve          the serving load harness                  TestRunRejectsEmptyInputBank
//	cmd/ispdemo          one scene through every device and stage  TestTable3CellDigestsPinned
//	cmd/perfbook         the repository benchmark (BENCHMARK.json) TestManifestMatchesBenchmarkJSON
//	examples/quickstart, examples/crossdevice, examples/heterogeneity and
//	examples/ecgfl       runnable tours (go run ./examples/quickstart)
//
// This package holds the repository-level tests: bench_test.go has one
// benchmark per table and figure of the paper's evaluation and the
// aggregation, evaluation and serving benchmarks; census_test.go is the
// reachability census (TestEveryDeclarationIsReachable); flags_test.go holds
// each shared flag to one declaration (TestSharedFlagsAreDeclaredOnce);
// integration_test.go runs cross-package paths end to end; docref_test.go
// holds every comment citation to the code (TestDocReferencesResolve) and
// this map to the tree (TestDocMapNamesEveryPackage).
package heteroswitch
