//! The GridRPC standard API.
//!
//! "The client API follows the GridRPC definition: all diet_ functions are
//! 'duplicated' with grpc_ functions. Both diet_initialize() /
//! grpc_initialize() and diet_finalize() / grpc_finalize() belong to the
//! GridRPC API. A problem is managed through a *function_handle*, that
//! associates a server to a service name."
//!
//! This module provides that exact surface over the native [`DietClient`]:
//! session management, function handles binding a service name to a chosen
//! server, synchronous/asynchronous calls and session-scoped call ids.

use crate::agent::MasterAgent;
use crate::client::{CallHandle, CallStats, DietClient};
use crate::error::DietError;
use crate::naming::NameServer;
use crate::profile::Profile;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A GridRPC function handle: service name + the server the MA bound it to.
/// ("The returned function_handle is associated to the problem description,
/// its profile, during the call.")
#[derive(Debug, Clone)]
pub struct FunctionHandle {
    pub service: String,
    /// Bound server label; `None` until first use with the default binding
    /// (the MA re-selects per call, DIET's actual behaviour).
    pub server: Option<String>,
}

/// One settled asynchronous call: `(session id, call outcome)`.
pub type WaitOutcome = (u64, Result<(Profile, CallStats), DietError>);

/// A GridRPC session: the client plus outstanding async calls by id.
pub struct GridRpcSession {
    client: DietClient,
    pending: Mutex<HashMap<u64, CallHandle>>,
    next_id: Mutex<u64>,
}

/// `grpc_initialize(config_file)` — resolve the MA via the name server.
pub fn grpc_initialize(config_text: &str, names: &NameServer) -> Result<GridRpcSession, DietError> {
    Ok(GridRpcSession {
        client: DietClient::initialize_from_config(config_text, names)?,
        pending: Mutex::new(HashMap::new()),
        next_id: Mutex::new(0),
    })
}

/// `grpc_initialize` variant for an already-known MA (tests, embedded use).
pub fn grpc_initialize_with_ma(ma: Arc<MasterAgent>) -> GridRpcSession {
    GridRpcSession {
        client: DietClient::initialize(ma),
        pending: Mutex::new(HashMap::new()),
        next_id: Mutex::new(0),
    }
}

impl GridRpcSession {
    /// `grpc_function_handle_default(service)` — the MA picks the server at
    /// call time (DIET's default-handle semantics).
    pub fn function_handle_default(&self, service: &str) -> FunctionHandle {
        FunctionHandle {
            service: service.to_string(),
            server: None,
        }
    }

    /// `grpc_call(handle, profile)` — synchronous.
    pub fn call(
        &self,
        handle: &mut FunctionHandle,
        profile: Profile,
    ) -> Result<(Profile, CallStats), DietError> {
        if profile.service != handle.service {
            return Err(DietError::ProfileMismatch {
                service: handle.service.clone(),
                detail: format!(
                    "handle bound to {}, profile is {}",
                    handle.service, profile.service
                ),
            });
        }
        let h = self.client.async_call(profile)?;
        handle.server = Some(h.server().to_string());
        let server = h.server().to_string();
        let res = h.wait();
        if let Ok((_, stats)) = &res {
            self.client.record(&server, *stats);
        }
        res
    }

    /// `grpc_call_async(handle, profile)` — returns a session call id.
    pub fn call_async(
        &self,
        handle: &mut FunctionHandle,
        profile: Profile,
    ) -> Result<u64, DietError> {
        if profile.service != handle.service {
            return Err(DietError::ProfileMismatch {
                service: handle.service.clone(),
                detail: "profile/handle service mismatch".into(),
            });
        }
        let h = self.client.async_call(profile)?;
        handle.server = Some(h.server().to_string());
        let id = {
            let mut n = self.next_id.lock();
            *n += 1;
            *n
        };
        self.pending.lock().insert(id, h);
        Ok(id)
    }

    /// `grpc_wait(id)` — block for one call.
    pub fn wait(&self, id: u64) -> Result<(Profile, CallStats), DietError> {
        let h = self
            .pending
            .lock()
            .remove(&id)
            .ok_or_else(|| DietError::Rejected(format!("unknown call id {id}")))?;
        let server = h.server().to_string();
        let res = h.wait();
        if let Ok((_, stats)) = &res {
            self.client.record(&server, *stats);
        }
        res
    }

    /// `grpc_wait_all()` — drain every outstanding call, in id order.
    pub fn wait_all(&self) -> Vec<WaitOutcome> {
        let mut ids: Vec<u64> = self.pending.lock().keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| (id, self.wait(id))).collect()
    }

    /// `grpc_wait_any()` — wait for whichever completes first (polled).
    pub fn wait_any(&self) -> Option<WaitOutcome> {
        loop {
            let ids: Vec<u64> = self.pending.lock().keys().copied().collect();
            if ids.is_empty() {
                return None;
            }
            for id in ids {
                let Some(h) = self.pending.lock().remove(&id) else {
                    continue; // raced with a concurrent wait(id)
                };
                let server = h.server().to_string();
                match h.try_wait() {
                    Ok(done) => {
                        if let Ok((_, stats)) = &done {
                            self.client.record(&server, *stats);
                        }
                        return Some((id, done));
                    }
                    Err(h) => {
                        self.pending.lock().insert(id, h);
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Outstanding async calls.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// `grpc_finalize()`.
    pub fn finalize(mut self) -> Vec<(String, CallStats)> {
        self.client.finalize();
        self.client.history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentNode;
    use crate::data::{DietValue, Persistence};
    use crate::profile::{ArgTag, ProfileDesc};
    use crate::sched::RoundRobin;
    use crate::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};

    fn negate_table() -> ServiceTable {
        let mut d = ProfileDesc::alloc("negate", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let x = p.get_i32(0)?;
            p.set(1, DietValue::ScalarI32(-x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(1);
        t.add(d, solve).unwrap();
        t
    }

    fn session(n: usize) -> (GridRpcSession, Vec<Arc<SedHandle>>) {
        let seds: Vec<Arc<SedHandle>> = (0..n)
            .map(|i| SedHandle::spawn(SedConfig::new(&format!("sed{i}"), 1.0), negate_table()))
            .collect();
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        (grpc_initialize_with_ma(ma), seds)
    }

    fn profile(x: i32) -> Profile {
        let d = ProfileDesc::alloc("negate", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
            .unwrap();
        p
    }

    #[test]
    fn grpc_call_binds_handle_to_server() {
        let (s, seds) = session(2);
        let mut h = s.function_handle_default("negate");
        assert!(h.server.is_none());
        let (p, _) = s.call(&mut h, profile(5)).unwrap();
        assert_eq!(p.get_i32(1).unwrap(), -5);
        assert!(h.server.is_some());
        for sed in seds {
            sed.shutdown();
        }
    }

    #[test]
    fn grpc_async_wait_by_id() {
        let (s, seds) = session(3);
        let mut h = s.function_handle_default("negate");
        let a = s.call_async(&mut h, profile(1)).unwrap();
        let b = s.call_async(&mut h, profile(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.pending_count(), 2);
        let (pb, _) = s.wait(b).unwrap();
        assert_eq!(pb.get_i32(1).unwrap(), -2);
        let (pa, _) = s.wait(a).unwrap();
        assert_eq!(pa.get_i32(1).unwrap(), -1);
        assert_eq!(s.pending_count(), 0);
        assert!(s.wait(a).is_err(), "double wait must error");
        for sed in seds {
            sed.shutdown();
        }
    }

    #[test]
    fn grpc_wait_all_drains_in_order() {
        let (s, seds) = session(3);
        let mut h = s.function_handle_default("negate");
        let ids: Vec<u64> = (0..5)
            .map(|i| s.call_async(&mut h, profile(i)).unwrap())
            .collect();
        let results = s.wait_all();
        assert_eq!(results.len(), 5);
        let got: Vec<u64> = results.iter().map(|(id, _)| *id).collect();
        assert_eq!(got, ids);
        for (i, (_, r)) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap().0.get_i32(1).unwrap(), -(i as i32));
        }
        for sed in seds {
            sed.shutdown();
        }
    }

    #[test]
    fn grpc_wait_any_returns_each_call_once() {
        let (s, seds) = session(2);
        let mut h = s.function_handle_default("negate");
        let mut expect: std::collections::HashSet<u64> = (0..4)
            .map(|i| s.call_async(&mut h, profile(i)).unwrap())
            .collect();
        while let Some((id, res)) = s.wait_any() {
            assert!(expect.remove(&id), "id {id} returned twice");
            res.unwrap();
        }
        assert!(expect.is_empty());
        assert_eq!(s.pending_count(), 0);
        let history = s.client.history();
        assert!(
            history.len() == 4 && history.iter().all(|(l, _)| l == "sed0" || l == "sed1"),
            "{history:?}"
        );
        for sed in seds {
            sed.shutdown();
        }
    }

    #[test]
    fn handle_service_mismatch_rejected() {
        let (s, seds) = session(1);
        let mut h = s.function_handle_default("other");
        assert!(matches!(
            s.call(&mut h, profile(1)),
            Err(DietError::ProfileMismatch { .. })
        ));
        for sed in seds {
            sed.shutdown();
        }
    }

    #[test]
    fn finalize_returns_history() {
        let (s, seds) = session(1);
        let mut h = s.function_handle_default("negate");
        s.call(&mut h, profile(3)).unwrap();
        let history = s.finalize();
        assert_eq!(history.len(), 1);
        for sed in seds {
            sed.shutdown();
        }
    }
}
