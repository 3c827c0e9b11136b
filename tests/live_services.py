"""Start a real IdP/SP pair on loopback for wire-level tests."""

import random
import threading
import time
from dataclasses import dataclass

from conftest import FED_KEY_ID, IDP_ENTITY, MASTER_KEY_ID, SP_ENTITY, TEST_KDF_ITERATIONS, make_key_store
from hbesso.httpbase import ServiceServer
from hbesso.idp import IdentityProvider, IdpConfig, IdpHandler
from hbesso.sp import ServiceProvider, SpConfig, SpHandler


@dataclass
class LivePair:
    idp: IdentityProvider
    sp: ServiceProvider
    idp_server: ServiceServer
    sp_server: ServiceServer

    @property
    def idp_url(self) -> str:
        return f"http://127.0.0.1:{self.idp_server.server_address[1]}"

    @property
    def sp_url(self) -> str:
        return f"http://127.0.0.1:{self.sp_server.server_address[1]}"

    def stop(self) -> None:
        for server in (self.idp_server, self.sp_server):
            server.shutdown()
            server.server_close()


def start_server(service, handler_cls, port: int, test_clock: bool) -> ServiceServer:
    """Bind 127.0.0.1:`port` and serve on a daemon thread.  The 0.05 s poll
    lets `shutdown()` return within that, not socketserver's default 0.5 s."""
    server = ServiceServer(("127.0.0.1", port), handler_cls, service, test_clock=test_clock)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server


def start_pair(
    key_store=None,
    clock=time.time,
    idp_seed=None,
    sp_seed=None,
    idp_port=0,
    sp_port=0,
    test_clock=True,
    directory_path=None,
    assertion_lifetime=120.0,
    pending_expiry=600.0,
    challenge_expiry=60.0,
    kdf_iterations=TEST_KDF_ITERATIONS,
) -> LivePair:
    key_store = key_store or make_key_store()
    idp_config = IdpConfig(
        entity_id=IDP_ENTITY,
        master_key_id=MASTER_KEY_ID,
        federation_keys={SP_ENTITY: FED_KEY_ID},
        assertion_lifetime=assertion_lifetime,
        challenge_expiry=challenge_expiry,
        kdf_iterations=kdf_iterations,
        directory_path=directory_path,
    )
    idp = IdentityProvider(
        idp_config,
        key_store,
        clock=clock,
        rng=None if idp_seed is None else random.Random(idp_seed),
    )
    idp_server = start_server(idp, IdpHandler, idp_port, test_clock)
    idp_url = f"http://127.0.0.1:{idp_server.server_address[1]}"

    sp_config = SpConfig(
        entity_id=SP_ENTITY,
        acs_url="pending",
        idp_url=idp_url,
        federation_key_id=FED_KEY_ID,
        pending_expiry=pending_expiry,
    )
    sp = ServiceProvider(
        sp_config,
        key_store,
        clock=clock,
        rng=None if sp_seed is None else random.Random(sp_seed),
    )
    sp_server = start_server(sp, SpHandler, sp_port, test_clock)
    sp.config.acs_url = f"http://127.0.0.1:{sp_server.server_address[1]}/acs"
    return LivePair(idp=idp, sp=sp, idp_server=idp_server, sp_server=sp_server)
