//! Client/server proxies — Fig. 2 of the paper, literally.
//!
//! "The client object and a server proxy would be placed on one processor,
//! and the server object and a client proxy on the other. The role of the
//! proxy is to receive messages, translate information into architecture
//! independent form, and forward the result to the corresponding proxy on
//! the other processor."
//!
//! [`ClientProxy`] marshals a method invocation (name resolved to a wire
//! index against the [`InterfaceDef`], arguments type-checked and encoded
//! as tagged [`Value`]s) into request bytes. [`ServerProxy`] unmarshals,
//! re-checks, invokes the local [`Service`], and marshals the reply. The
//! byte buffers in between can ride any transport — a VCE channel, the
//! simulator, or a plain function call in tests.

use std::fmt;

use vce_codec::{Codec, Decoder, Encoder, Value};

use crate::idl::{InterfaceDef, ParamType};

/// Invocation failures (either side).
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// Method name not in the interface.
    NoSuchMethod(String),
    /// Wire method index out of range (version skew).
    BadMethodIndex(u32),
    /// Wrong argument count.
    ArityMismatch {
        /// Method name.
        method: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// An argument failed its type check.
    TypeError {
        /// Method name.
        method: String,
        /// Zero-based argument position.
        index: usize,
        /// Declared type.
        expected: ParamType,
    },
    /// The reply's type failed its check.
    BadReturn {
        /// Method name.
        method: String,
        /// Declared return type.
        expected: ParamType,
    },
    /// Marshaling failure.
    Codec(String),
    /// The service itself reported an application error.
    Application(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::NoSuchMethod(m) => write!(f, "no such method {m:?}"),
            ProxyError::BadMethodIndex(i) => write!(f, "bad method index {i}"),
            ProxyError::ArityMismatch {
                method,
                expected,
                got,
            } => write!(f, "{method}: expected {expected} args, got {got}"),
            ProxyError::TypeError {
                method,
                index,
                expected,
            } => write!(
                f,
                "{method}: argument {index} must be {}",
                expected.spelling()
            ),
            ProxyError::BadReturn { method, expected } => {
                write!(f, "{method}: return must be {}", expected.spelling())
            }
            ProxyError::Codec(e) => write!(f, "marshaling error: {e}"),
            ProxyError::Application(e) => write!(f, "application error: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// The server object: what the server proxy invokes locally.
pub trait Service: Send {
    /// Handle one (already type-checked) invocation.
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, String>;
}

impl<F> Service for F
where
    F: FnMut(&str, &[Value]) -> Result<Value, String> + Send,
{
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, String> {
        self(method, args)
    }
}

// Reply wire tags.
const REPLY_OK: u8 = 0;
const REPLY_ERR: u8 = 1;

/// Client-side proxy: turns method calls into request bytes and reply
/// bytes into values.
#[derive(Debug, Clone)]
pub struct ClientProxy {
    interface: InterfaceDef,
}

impl ClientProxy {
    /// Generate a client proxy for an interface.
    pub fn new(interface: InterfaceDef) -> Self {
        Self { interface }
    }

    /// The interface this proxy speaks.
    pub fn interface(&self) -> &InterfaceDef {
        &self.interface
    }

    /// Marshal an invocation. Checks arity and argument types against the
    /// IDL *before* anything leaves the machine (fail fast, locally).
    pub fn marshal_call(&self, method: &str, args: &[Value]) -> Result<Vec<u8>, ProxyError> {
        let mut enc = Encoder::with_capacity(64);
        self.marshal_call_into(method, args, &mut enc)?;
        Ok(enc.finish())
    }

    /// [`Self::marshal_call`] into a caller-owned encoder (appends; the
    /// caller clears or freezes it). Hosts pass their pooled scratch
    /// encoder here so marshaling a call allocates nothing.
    pub fn marshal_call_into(
        &self,
        method: &str,
        args: &[Value],
        enc: &mut Encoder,
    ) -> Result<(), ProxyError> {
        let idx = self
            .interface
            .index_of(method)
            .ok_or_else(|| ProxyError::NoSuchMethod(method.to_string()))?;
        let def = &self.interface.methods[idx];
        if def.params.len() != args.len() {
            return Err(ProxyError::ArityMismatch {
                method: method.to_string(),
                expected: def.params.len(),
                got: args.len(),
            });
        }
        for (i, (p, a)) in def.params.iter().zip(args).enumerate() {
            if !p.admits(a) {
                return Err(ProxyError::TypeError {
                    method: method.to_string(),
                    index: i,
                    expected: *p,
                });
            }
        }
        (idx as u32).encode(enc);
        args.len().encode(enc);
        for a in args {
            a.encode(enc);
        }
        Ok(())
    }

    /// Unmarshal a reply for `method`, checking the return type.
    pub fn unmarshal_reply(&self, method: &str, bytes: &[u8]) -> Result<Value, ProxyError> {
        let idx = self
            .interface
            .index_of(method)
            .ok_or_else(|| ProxyError::NoSuchMethod(method.to_string()))?;
        let def = &self.interface.methods[idx];
        let mut dec = Decoder::new(bytes);
        let tag = dec.get_u8().map_err(|e| ProxyError::Codec(e.to_string()))?;
        match tag {
            REPLY_OK => {
                let v = Value::decode(&mut dec).map_err(|e| ProxyError::Codec(e.to_string()))?;
                if !def.returns.admits(&v) {
                    return Err(ProxyError::BadReturn {
                        method: method.to_string(),
                        expected: def.returns,
                    });
                }
                Ok(v)
            }
            REPLY_ERR => {
                let msg = dec
                    .get_str()
                    .map_err(|e| ProxyError::Codec(e.to_string()))?;
                Err(ProxyError::Application(msg.to_string()))
            }
            other => Err(ProxyError::Codec(format!("bad reply tag {other}"))),
        }
    }

    /// Convenience: full round trip through a transport function
    /// (request bytes in, reply bytes out).
    pub fn call(
        &self,
        method: &str,
        args: &[Value],
        transport: impl FnOnce(Vec<u8>) -> Vec<u8>,
    ) -> Result<Value, ProxyError> {
        let req = self.marshal_call(method, args)?;
        let reply = transport(req);
        self.unmarshal_reply(method, &reply)
    }
}

/// Server-side proxy: owns the service object, dispatches request bytes.
pub struct ServerProxy {
    interface: InterfaceDef,
    service: Box<dyn Service>,
    calls_served: u64,
}

impl ServerProxy {
    /// Generate a server proxy around a service.
    pub fn new(interface: InterfaceDef, service: Box<dyn Service>) -> Self {
        Self {
            interface,
            service,
            calls_served: 0,
        }
    }

    /// Invocations handled so far.
    pub fn calls_served(&self) -> u64 {
        self.calls_served
    }

    /// Handle one request buffer, producing the reply buffer. Malformed or
    /// ill-typed requests produce an error *reply* (the remote caller gets
    /// the diagnosis), never a panic.
    pub fn dispatch(&mut self, request: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(32);
        self.dispatch_into(request, &mut enc);
        enc.finish()
    }

    /// [`Self::dispatch`] into a caller-owned encoder (appends; the caller
    /// clears or freezes it). Hosts pass their pooled scratch encoder here
    /// so serving a call allocates nothing beyond the argument values.
    pub fn dispatch_into(&mut self, request: &[u8], enc: &mut Encoder) {
        match self.try_dispatch(request) {
            Ok(v) => {
                enc.put_u8(REPLY_OK);
                v.encode(enc);
            }
            Err(e) => {
                enc.put_u8(REPLY_ERR);
                // Application errors travel verbatim; proxy-level failures
                // carry their diagnostic prefix.
                match &e {
                    ProxyError::Application(m) => enc.put_str(m),
                    other => enc.put_str(&other.to_string()),
                }
            }
        }
    }

    fn try_dispatch(&mut self, request: &[u8]) -> Result<Value, ProxyError> {
        let mut dec = Decoder::new(request);
        let idx = u32::decode(&mut dec).map_err(|e| ProxyError::Codec(e.to_string()))?;
        let def = self
            .interface
            .methods
            .get(idx as usize)
            .ok_or(ProxyError::BadMethodIndex(idx))?
            .clone();
        let n = usize::decode(&mut dec).map_err(|e| ProxyError::Codec(e.to_string()))?;
        if n != def.params.len() {
            return Err(ProxyError::ArityMismatch {
                method: def.name.clone(),
                expected: def.params.len(),
                got: n,
            });
        }
        let mut args = Vec::with_capacity(n);
        for i in 0..n {
            let v = Value::decode(&mut dec).map_err(|e| ProxyError::Codec(e.to_string()))?;
            if !def.params[i].admits(&v) {
                return Err(ProxyError::TypeError {
                    method: def.name.clone(),
                    index: i,
                    expected: def.params[i],
                });
            }
            args.push(v);
        }
        self.calls_served += 1;
        let out = self
            .service
            .invoke(&def.name, &args)
            .map_err(ProxyError::Application)?;
        if !def.returns.admits(&out) {
            return Err(ProxyError::BadReturn {
                method: def.name,
                expected: def.returns,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::InterfaceDef;

    fn iface() -> InterfaceDef {
        InterfaceDef::new("Calc")
            .method("add", vec![ParamType::I64, ParamType::I64], ParamType::I64)
            .method("greet", vec![ParamType::Str], ParamType::Str)
            .method("fail", vec![], ParamType::Unit)
    }

    fn server() -> ServerProxy {
        ServerProxy::new(
            iface(),
            Box::new(|method: &str, args: &[Value]| match method {
                "add" => Ok(Value::I64(
                    args[0].as_i64().unwrap() + args[1].as_i64().unwrap(),
                )),
                "greet" => Ok(Value::Str(format!("hello {}", args[0].as_str().unwrap()))),
                "fail" => Err("deliberate".to_string()),
                _ => unreachable!(),
            }),
        )
    }

    #[test]
    fn end_to_end_invocation() {
        let client = ClientProxy::new(iface());
        let mut srv = server();
        let v = client
            .call("add", &[Value::I64(2), Value::I64(40)], |req| {
                srv.dispatch(&req)
            })
            .unwrap();
        assert_eq!(v, Value::I64(42));
        assert_eq!(srv.calls_served(), 1);
        let v = client
            .call("greet", &[Value::Str("vce".into())], |req| {
                srv.dispatch(&req)
            })
            .unwrap();
        assert_eq!(v.as_str(), Some("hello vce"));
    }

    #[test]
    fn application_errors_propagate() {
        let client = ClientProxy::new(iface());
        let mut srv = server();
        let e = client
            .call("fail", &[], |req| srv.dispatch(&req))
            .unwrap_err();
        assert!(matches!(e, ProxyError::Application(m) if m == "deliberate"));
    }

    #[test]
    fn client_rejects_bad_calls_locally() {
        let client = ClientProxy::new(iface());
        assert!(matches!(
            client.marshal_call("nope", &[]),
            Err(ProxyError::NoSuchMethod(_))
        ));
        assert!(matches!(
            client.marshal_call("add", &[Value::I64(1)]),
            Err(ProxyError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            client.marshal_call("add", &[Value::I64(1), Value::Str("x".into())]),
            Err(ProxyError::TypeError { index: 1, .. })
        ));
    }

    #[test]
    fn server_rejects_forged_requests_gracefully() {
        let client = ClientProxy::new(iface());
        let mut srv = server();
        // Garbage bytes → error reply, not a panic.
        let reply = srv.dispatch(&[0xff, 0x01]);
        let e = client.unmarshal_reply("add", &reply).unwrap_err();
        assert!(matches!(e, ProxyError::Application(_)));
        // Out-of-range method index.
        let mut enc = Encoder::new();
        enc.put_uvarint(99);
        enc.put_uvarint(0);
        let reply = srv.dispatch(&enc.finish());
        assert!(matches!(
            client.unmarshal_reply("fail", &reply),
            Err(ProxyError::Application(m)) if m.contains("bad method index")
        ));
        assert_eq!(srv.calls_served(), 0);
    }

    #[test]
    fn server_type_checks_arguments() {
        // Hand-craft a request with a wrong-typed argument (skipping the
        // client's local check, as a buggy foreign stub would).
        let mut enc = Encoder::new();
        enc.put_uvarint(0); // add
        enc.put_uvarint(2);
        Value::I64(1).encode(&mut enc);
        Value::Str("not a number".into()).encode(&mut enc);
        let mut srv = server();
        let reply = srv.dispatch(&enc.finish());
        let client = ClientProxy::new(iface());
        let e = client.unmarshal_reply("add", &reply).unwrap_err();
        assert!(matches!(e, ProxyError::Application(m) if m.contains("argument 1")));
    }

    #[test]
    fn cross_interface_version_skew_detected() {
        // Client thinks `fail` returns unit; server replies i64 via a
        // doctored service.
        let bad_iface = InterfaceDef::new("Calc").method("fail", vec![], ParamType::I64);
        let mut srv = ServerProxy::new(
            bad_iface,
            Box::new(|_: &str, _: &[Value]| Ok(Value::I64(5))),
        );
        let client = ClientProxy::new(iface());
        // Client's `fail` is index 2, server has only index 0 → BadMethodIndex.
        let req = client.marshal_call("fail", &[]).unwrap();
        let reply = srv.dispatch(&req);
        assert!(client.unmarshal_reply("fail", &reply).is_err());
    }

    #[test]
    fn display_messages() {
        let e = ProxyError::TypeError {
            method: "add".into(),
            index: 0,
            expected: ParamType::I64,
        };
        assert!(e.to_string().contains("argument 0 must be i64"));
    }
}
