//! Child processes of the benchmark binary: the wire workload's daemon,
//! and the helper that repeats a workload's set-up outside the measured
//! process.

use crate::trace::Layers;
use crate::{fleet, serve, work_dir, workload};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// This binary re-executed with other arguments, talking over pipes.
/// Dropping it kills and reaps the process.
pub struct Helper {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    /// Starts the child with `args`, its stdin and stdout piped.
    pub fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdin,
            stdout,
        })
    }

    /// The next line the child printed.
    pub fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("child pipe: {e}"))?;
        Ok(line)
    }

    /// Sends the child one line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("child pipe: {e}"))
    }

    /// Waits for the child to exit and checks that it succeeded. With
    /// `close`, stdin is closed first, which tells the child to stop;
    /// otherwise it stays open until the child has exited on its own,
    /// since a closed stdin is how a child learns that its parent is gone.
    pub fn wait(&mut self, close: bool) -> Result<(), String> {
        if close {
            self.stdin.take();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Repeats a workload's set-up in a child process, so that the spare
/// set-ups spread over a run do not add to the measured process's peak
/// RSS. The child keeps its heap between set-ups, as the measured process
/// would.
pub struct SetupHelper(Helper);

impl SetupHelper {
    /// Starts the helper for `workload` at `seed`.
    pub fn spawn(workload: &str, seed: u64) -> Result<Self, String> {
        let args = ["--setup-child", workload, &seed.to_string()].map(String::from);
        Helper::spawn(&args).map(Self)
    }

    /// One set-up: its time to ready-to-serve, with its layers added to `l`.
    pub fn setup(&mut self, l: &mut Layers) -> Result<f64, String> {
        self.0.send("setup")?;
        let line = self.0.line()?;
        let (total, layers) = line
            .strip_prefix("ready ")
            .and_then(|rest| rest.trim_end().split_once(' '))
            .ok_or_else(|| format!("set-up helper failed: {line:?}"))?;
        l.setup.absorb_line(layers)?;
        total
            .parse()
            .map_err(|_| format!("bad set-up time {total:?}"))
    }

    /// Stops the helper.
    pub fn finish(mut self) -> Result<(), String> {
        self.0.wait(true)
    }
}

/// The helper's side: one set-up per line on stdin, until stdin closes.
pub fn setup_child(workload: &str, seed: u64) -> Result<(), String> {
    let spare = work_dir().join(format!("setup-{}.pages", std::process::id()));
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lines() {
        line.map_err(|e| e.to_string())?;
        let mut l = Layers::default();
        let s = match workload {
            "serve_ram" => serve::Rig::build(&workload::serve_config(seed), None, &mut l).1,
            "serve_paged" => {
                serve::Rig::build(&workload::serve_config(seed), Some(&spare), &mut l).1
            }
            "fleet_outage" => fleet::build(&workload::fleet_config(seed), &mut l).2,
            _ => return Err(format!("no set-up helper for {workload}")),
        };
        writeln!(out, "ready {s:?} {}", l.setup.line())
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_file(&spare);
    Ok(())
}
