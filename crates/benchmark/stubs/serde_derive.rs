//! Offline stand-in for `serde_derive`: the workspace derives
//! `Serialize`/`Deserialize` but no serializer consumes them (JSON goes
//! through `cannikin_telemetry::json`), so the derives expand to nothing.

extern crate proc_macro;
use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
