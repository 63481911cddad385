//! The embedded single-page Ajax client.
//!
//! A plain-JavaScript stand-in for the paper's GWT page: it reads the live
//! head from `/api/state`, long-polls `/api/poll` with `XMLHttpRequest` in
//! **delta mode** carrying its own `since`, and when a new frame arrives
//! redraws only the image canvas and the monitored values (partial screen
//! update) — a delta response patches only the changed tiles into the
//! retained pixel buffer.  Steering parameters are posted to `/api/steer`
//! without reloading the page.

/// The HTML/JavaScript page served at `/`.
pub const INDEX_HTML: &str = r#"<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>RICSA — computational monitoring and steering</title>
<style>
 body { font-family: sans-serif; margin: 1.5em; background: #181c20; color: #e8e8e8; }
 h1 { font-size: 1.2em; }
 #layout { display: flex; gap: 2em; }
 canvas { border: 1px solid #555; image-rendering: pixelated; background: #000; }
 .panel { min-width: 20em; }
 label { display: block; margin-top: 0.6em; }
 input { width: 6em; }
 #status { margin-top: 1em; color: #9fd49f; }
 table { border-collapse: collapse; margin-top: 0.8em; }
 td { padding: 0.15em 0.8em 0.15em 0; }
</style>
</head>
<body>
<h1>RICSA — remote monitoring &amp; steering (Ajax front end)</h1>
<div id="layout">
  <div>
    <canvas id="view" width="256" height="256"></canvas>
    <div id="status">waiting for frames…</div>
  </div>
  <div class="panel">
    <h2>Monitored values</h2>
    <table id="monitors"></table>
    <h2>Steering</h2>
    <label>CFL <input id="cfl" type="number" step="0.05" value="0.4"></label>
    <label>Gamma <input id="gamma" type="number" step="0.01" value="1.4"></label>
    <label>Drive strength <input id="drive" type="number" step="0.1" value="1.0"></label>
    <label>Inflow velocity <input id="inflow" type="number" step="0.1" value="2.0"></label>
    <button id="steer">Apply steering</button>
  </div>
</div>
<script>
var lastSeq = 0;
// Retained frame state: delta responses patch `pix` in place, so only the
// changed tiles are decoded and redrawn (the paper's partial screen update
// carried through to the wire).  `hubEpoch` marks which server incarnation
// the retained pixels belong to — after a restart, deltas from the new
// epoch must not be patched onto old-epoch pixels.  `forceFull` requests
// the full encoding whenever there is no applicable pixel buffer (first
// frame, unapplicable delta, epoch change) — the sequence cursor is kept,
// so re-syncing never replays the retained backlog.
var pix = null, pixW = 0, pixH = 0, hubEpoch = null, forceFull = true;

function bytesOf(b64) { var s = atob(b64), a = new Uint8Array(s.length);
  for (var i = 0; i < s.length; i++) { a[i] = s.charCodeAt(i); } return a; }

// The hub's wire codec (pixel-granular PackBits): a 4-byte original length
// (LE), then records over 4-byte pixel units — control 0..127 is followed
// by control+1 literal pixels, control 128..255 by one pixel repeated
// (control-126) times; the trailing len%4 bytes are stored raw.
function rleDecode(src) {
  var n = src[0] | (src[1] << 8) | (src[2] << 16) | (src[3] << 24);
  var out = new Uint8Array(n), at = 4, o = 0, body = n - (n % 4);
  while (o < body) {
    var c = src[at++];
    if (c < 128) {
      var take = (c + 1) * 4;
      out.set(src.subarray(at, at + take), o); at += take; o += take;
    } else {
      var reps = c - 126, unit = src.subarray(at, at + 4);
      for (var r = 0; r < reps; r++) { out.set(unit, o); o += 4; }
      at += 4;
    }
  }
  out.set(src.subarray(at, at + (n % 4)), o);
  return out;
}

function redraw(frame) {
  var canvas = document.getElementById('view');
  canvas.width = pixW; canvas.height = pixH;
  var ctx = canvas.getContext('2d');
  var img = ctx.createImageData(pixW, pixH);
  img.data.set(pix);
  ctx.putImageData(img, 0, 0);
  var table = document.getElementById('monitors');
  table.innerHTML = '';
  frame.monitors.forEach(function(m) {
    var row = table.insertRow();
    row.insertCell().textContent = m[0];
    row.insertCell().textContent = Number(m[1]).toPrecision(5);
  });
  document.getElementById('status').textContent =
    'cycle ' + frame.cycle + '  t=' + Number(frame.time).toFixed(4) +
    '  frame #' + frame.sequence + (frame.mode === 'delta' ? '  (delta)' : '');
}

function applyFull(frame) {
  var bytes = bytesOf(frame.image_base64);
  if (frame.codec === 'rle') { bytes = rleDecode(bytes); }
  // RICSAIMG header: 8 magic + 4 width + 4 height (LE), then RGBA.
  pixW = bytes[8] | (bytes[9] << 8) | (bytes[10] << 16);
  pixH = bytes[12] | (bytes[13] << 8) | (bytes[14] << 16);
  pix = bytes.subarray(16);
}

function applyDelta(frame) {
  frame.tiles.forEach(function(t) {
    var data = bytesOf(t.data_base64), off = 0;
    if (t.rle) { data = rleDecode(data); }
    for (var row = t.y; row < t.y + t.h; row++) {
      pix.set(data.subarray(off, off + t.w * 4), (row * pixW + t.x) * 4);
      off += t.w * 4;
    }
  });
}

function drawFrame(frame) {
  if (frame.mode === 'delta') {
    if (!pix || frame.base_sequence !== lastSeq) { return false; } // need a full frame
    applyDelta(frame);
  } else {
    applyFull(frame);
  }
  redraw(frame);
  return true;
}

// Every poll response (frame or timeout) carries the hub epoch; a change
// means the server restarted, so retained pixels and the since cursor are
// both stale and must be reset before the next poll.
function noteEpoch(resp) {
  if (resp && resp.epoch !== undefined && resp.epoch !== hubEpoch) {
    if (hubEpoch !== null) { pix = null; lastSeq = 0; forceFull = true; }
    hubEpoch = resp.epoch;
  }
}

function poll() {
  var xhr = new XMLHttpRequest();
  xhr.open('GET', '/api/poll?since=' + lastSeq + '&timeout_ms=15000' +
    '&mode=' + (forceFull ? 'full' : 'delta'));
  xhr.onload = function() {
    if (xhr.status === 200 && xhr.responseText) {
      var frame = JSON.parse(xhr.responseText);
      noteEpoch(frame);
      if (frame && frame.sequence) {
        if (drawFrame(frame)) { lastSeq = frame.sequence; forceFull = false; }
        else { forceFull = true; } // unapplicable delta: refetch in full, same cursor
      }
    }
    poll();
  };
  xhr.onerror = function() { setTimeout(poll, 1000); };
  xhr.send();
}

document.getElementById('steer').onclick = function() {
  var body = JSON.stringify({
    cfl: parseFloat(document.getElementById('cfl').value),
    gamma: parseFloat(document.getElementById('gamma').value),
    drive_strength: parseFloat(document.getElementById('drive').value),
    inflow_velocity: parseFloat(document.getElementById('inflow').value),
    end_cycle: 1000000
  });
  var xhr = new XMLHttpRequest();
  xhr.open('POST', '/api/steer');
  xhr.setRequestHeader('Content-Type', 'application/json');
  xhr.send(body);
};

// Start the cursor at the live head (no replay of the retained backlog),
// then start the long-poll loop.
(function() {
  var xhr = new XMLHttpRequest();
  xhr.open('GET', '/api/state');
  xhr.onload = function() {
    if (xhr.status === 200) {
      try {
        var state = JSON.parse(xhr.responseText);
        lastSeq = state.latest_sequence || 0;
        noteEpoch(state);
      } catch (e) {}
    }
    poll();
  };
  xhr.onerror = function() { poll(); };
  xhr.send();
})();
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_contains_the_ajax_machinery() {
        assert!(INDEX_HTML.contains("XMLHttpRequest"));
        assert!(INDEX_HTML.contains("/api/poll"));
        assert!(INDEX_HTML.contains("/api/steer"));
        // Stateless polling: the page carries its own cursor, learns the
        // live head from `/api/state` and registers nowhere.
        assert!(INDEX_HTML.contains("since="));
        assert!(INDEX_HTML.contains("&mode="));
        assert!(INDEX_HTML.contains("xhr.open('GET', '/api/state')"));
        assert!(!INDEX_HTML.contains("/api/client"));
        assert!(!INDEX_HTML.contains("client="));
        assert!(INDEX_HTML.contains("'delta'"));
        assert!(INDEX_HTML.contains("base_sequence"));
        assert!(INDEX_HTML.contains("hubEpoch"));
        assert!(INDEX_HTML.contains("forceFull"));
        assert!(INDEX_HTML.contains("RICSAIMG"));
        // The wire codec: full frames and delta tiles may arrive
        // run-length coded.
        assert!(INDEX_HTML.contains("rleDecode"));
        assert!(INDEX_HTML.contains("frame.codec === 'rle'"));
        assert!(INDEX_HTML.contains("t.rle"));
    }
}
