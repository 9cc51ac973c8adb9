// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 7). Each fig* function returns typed rows that the
// tkcm-bench CLI and the root bench suite render; PAPER-MAP.md maps paper
// artifacts to the functions here.
//
// The harness follows the paper's protocol: generate a dataset, erase a
// block of consecutive values from a target series (simulating a sensor
// failure), recover the block with each algorithm, and report the RMSE over
// the erased ticks.
package experiments
